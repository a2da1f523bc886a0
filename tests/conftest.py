"""Shared fixtures."""

import pytest


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
