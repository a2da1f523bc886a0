"""Why bother with the 5-point estimator: the per-step cost comparison.

The 3-point time estimator needs the discrete Laplacian of a second
difference at every step - one auxiliary mass-matrix solve per step on top
of the time stepping itself.  The 5-point estimator replaces that solve with
a fourth difference in time: a few vector operations and two norms.

This script makes one short wave run of the standing mode on a unit-square
mesh with ~2 * 10^4 triangles (``wavest bench``'s run) and reads the
estimator accumulator's own timing of each estimator call (solver work and
the second differences both paths share excluded), with the space's
auxiliary-solve count alongside.  Expect the 5-point path to be an order of
magnitude cheaper per step; the gap widens with mesh size since the mass
solve scales with the vertex count while the stencil work is a handful of
vector operations.  BLAS runs on one thread unless the environment says
otherwise, as in ``wavest bench``.

Run:  python demos/estimator_cost.py
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")

from wavest.harness import BENCH_COLUMNS, benchmark_estimators, rows_to_csv  # noqa: E402


def main():
    eta3, eta5 = rows = benchmark_estimators("structured:n=100:pattern=diagonal")
    print(rows_to_csv(BENCH_COLUMNS, rows))
    speedup = eta3["seconds_per_step"] / eta5["seconds_per_step"]
    print(f"5-point path is {speedup:.1f}x cheaper per step "
          f"({eta3['aux_solves']} auxiliary solves vs none)")


if __name__ == "__main__":
    main()
