"""Why bother with the 5-point estimator: the per-step cost comparison.

The 3-point time estimator needs the discrete Laplacian of a second
difference at every step - one auxiliary mass-matrix solve per step on top
of the time stepping itself.  The 5-point estimator replaces that solve with
a fourth difference in time: a few vector operations and two norms.

This script times both estimator paths at prepared interior nodes over a
unit-square mesh with ~2 * 10^4 triangles (solver work and the second
differences both paths share excluded), and prints the auxiliary-solve
counters alongside.  Expect the 5-point path to be an
order of magnitude cheaper per step; the gap widens with mesh size since the
mass solve scales with the vertex count while the stencil work is a handful
of vector operations.

Run:  python demos/estimator_cost.py
"""

from wavest.harness import BENCH_COLUMNS, benchmark_estimators, rows_to_csv
from wavest.mesh import generate_structured


def main():
    mesh = generate_structured(100, "diagonal")
    report = benchmark_estimators(mesh=mesh, n_steps=8, warmup=2)
    print(rows_to_csv(BENCH_COLUMNS, report.to_rows()))
    speedup = report.eta3_seconds_per_step / report.eta5_seconds_per_step
    print(f"5-point path is {speedup:.1f}x cheaper per step "
          f"({report.eta3_aux_solves} vs {report.eta5_aux_solves} auxiliary solves)")


if __name__ == "__main__":
    main()
