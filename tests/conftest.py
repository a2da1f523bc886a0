"""Shared fixtures and the hypothesis profiles."""

import os

# One BLAS/OpenMP thread, set before numpy loads (as perfbench/run.py does):
# criterion 9 times eta5's small dot products against eta3, and a second BLAS
# thread waiting for a core that another process keeps busy can make eta5
# read 20-50 times its usual cost.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import pytest  # noqa: E402
from hypothesis import settings

# CI runs with --hypothesis-profile=ci: the same examples on every run and no
# per-example deadline, so a property test cannot flake on a slow runner
settings.register_profile("ci", derandomize=True, deadline=None)


@pytest.fixture
def eta5_solves(monkeypatch):
    """Solve counts of the 5-point path: for each call of ``eta5_step``, the
    ``wavest.fem.solve_spd`` calls made inside it.

    Patches ``eta5_step`` where the accumulator and the cost benchmark look it
    up, so the list fills as they run.
    """
    from wavest import estimators, fem, harness

    solves, per_call = [], []
    solve_spd = fem.solve_spd
    monkeypatch.setattr(fem, "solve_spd", lambda *a, **k: solves.append(1) or solve_spd(*a, **k))
    eta5_step = estimators.eta5_step

    def counted(*args, **kwargs):
        before = len(solves)
        try:
            return eta5_step(*args, **kwargs)
        finally:
            per_call.append(len(solves) - before)

    for module in (estimators, harness):
        monkeypatch.setattr(module, "eta5_step", counted)
    return per_call


@pytest.fixture(params=[5, 0, -1, -31], ids=["fewer", "exactly", "one-more", "many"])
def blocked_mesh(request, monkeypatch):
    """A jittered 36-triangle mesh, with ``fem.QUAD_BLOCK`` patched to 41, 36, 35 or 5.

    Spaces built on it take the patched blocks: fewer triangles than one
    block, exactly one block, one block and one triangle, and eight blocks.
    """
    from oracles import jittered_crisscross
    from wavest import fem

    mesh = jittered_crisscross(3)
    monkeypatch.setattr(fem, "QUAD_BLOCK", mesh.n_triangles + request.param)
    return mesh
