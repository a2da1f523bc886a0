"""Effectivity tables for the scalar model u'' + A u = 0, u = cos(sqrt(A) t).

Sweeps the stiffness constant A over {1e2, 1e3, 1e4} and three grid
resolutions, for a uniform grid and for two alternating-step grids (step
ratios 10 and 100).  For each run the cumulative 3-point and 5-point time
estimators, the true energy error and both effectivity indices are printed.

Things to observe in the output:
  * all three quantities scale as tau^2: one decade in N is two decades in
    the columns;
  * on uniform grids both effectivity indices settle at 2.5;
  * on alternating grids they settle near 1.16 (ratio 10) and 1.01
    (ratio 100) - the estimators track the true error on strongly graded
    grids too;
  * the one deliberate exception: at (A=100, N=19800) on the ratio-100 grid
    the 5-point estimator blows up.  Its fourth difference divides rounding
    errors by products of tiny steps, and at that resolution the noise
    overtakes the signal, while the 3-point estimator (which never forms a
    fourth difference) stays sharp.  That is the practical cost of the
    cheaper estimator.

Run:  python demos/ode_effectivity_tables.py
"""

from wavest.harness import ExperimentConfig, ODE_COLUMNS, rows_to_csv, run_ode_experiment

SWEEPS = {
    "uniform steps": ("uniform", [100, 1000, 10000]),
    "alternating steps, ratio 10": ("alt10", [180, 1816, 18180]),
    "alternating steps, ratio 100": ("alt100", [196, 1978, 19800]),
}


def main():
    for title, (rule, sizes) in SWEEPS.items():
        rows = [run_ode_experiment(ExperimentConfig(kind="ode", A=A, N=n, grid=rule))[0]
                for A in (100.0, 1000.0, 10000.0) for n in sizes]
        print(f"== {title} ==")
        print(rows_to_csv(ODE_COLUMNS, rows))


if __name__ == "__main__":
    main()
