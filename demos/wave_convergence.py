"""Travelling Gaussian pulse: space-time estimators under mesh refinement.

Solves the wave equation on the unit square for a Gaussian pulse whose
center accelerates from (0.3, 0.3) to (0.7, 0.7), on a sequence of crisscross
meshes with the mesh size halving per level and the initial time step tied
to sqrt(h).  Time steps follow the decaying rule tau_n ~ tau0 / sqrt(t_n),
so the grid refines as the pulse speeds up.

Per level the run reports the cumulative 3-point and 5-point time estimators,
the two-part residual space estimator, the true energy error (exact solution
known in closed form) and the combined effectivity indices.

What the numbers show:
  * the true error halves per level: e ~ O(tau^2 + h) with tau0^2 ~ h;
  * the two time estimators agree to a percent or two and tighten under
    refinement - on smooth solutions the cheap 5-point estimator loses
    nothing;
  * the space part dominates for this sharp pulse (the volume residual of
    part 2 scales with the Laplacian of the velocity, which peaks near 700),
    so the combined effectivities sit near 50 at unit constants and are flat
    across levels.

Run:  python demos/wave_convergence.py        (about half a minute)
"""

import numpy as np

from wavest.harness import (ExperimentConfig, WAVE_COLUMNS, rows_to_csv,
                            run_wave_experiment)


def main():
    rows = []
    for n in (14, 28, 56):
        tau0 = 0.12 * np.sqrt(1.0 / n)
        cfg = ExperimentConfig(
            kind="wave",
            mesh=f"structured:n={n}:pattern=crisscross",
            grid="decay",
            tau0=tau0,
            T=1.0,
        )
        row, trace, acc = run_wave_experiment(cfg)
        rows.append(row)
        part1, part2 = acc.space_acc.parts
        print(f"h = {row['h']:.4f}: N_ts = {row['N_ts']}, e = {row['e']:.4f}, "
              f"eta_T = {row['eta_T']:.4f}, eta_T_hat = {row['eta_T_hat']:.4f}, "
              f"eta_S = {row['eta_S']:.3f} (parts {part1:.3f} + {part2:.3f}), "
              f"ei = {row['ei']:.2f}, ei_hat = {row['ei_hat']:.2f}")
    print()
    print(rows_to_csv(WAVE_COLUMNS, rows))
    es = [r["e"] for r in rows]
    print("error ratios per level:", [f"{a / b:.3f}" for a, b in zip(es, es[1:])])


if __name__ == "__main__":
    main()
