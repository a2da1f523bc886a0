"""Time evolution of the cumulative estimators against the running error.

Runs the scalar model (A = 100) on the ratio-10 alternating grid with
N = 180 steps and writes a per-step trace: cumulative 3-point estimator,
cumulative 5-point estimator, and the running maximum of the true energy
error.  Both estimator curves grow monotonically, stay above the error curve
(they are upper bounds up to the suppressed constants) and remain roughly
parallel to it - the plateaus line up where the solution's curvature is
small.

The trace is plot-ready CSV; e.g.

    python demos/estimator_trace.py > trace.csv
    # then plot columns t vs eta_T_cum, eta_T_hat_cum, err_max

Note the 5-point curve only starts rising after four steps: the fourth
difference needs five time levels, which is the price of avoiding the
per-step auxiliary solve.
"""

import sys

from wavest.harness import (ExperimentConfig, TRACE_COLUMNS, rows_to_csv,
                            run_ode_experiment)


def main():
    cfg = ExperimentConfig(kind="ode", A=100.0, N=180, grid="alt10")
    row, trace = run_ode_experiment(cfg)
    sys.stdout.write(rows_to_csv(TRACE_COLUMNS, trace))
    print(f"# final: eta_T={row['eta_T']:.4g} eta_T_hat={row['eta_T_hat']:.4g} "
          f"e={row['e']:.4g} ei_T={row['ei_T']:.3g} ei_T_hat={row['ei_T_hat']:.3g}",
          file=sys.stderr)


if __name__ == "__main__":
    main()
