"""Time grid construction: uniform, alternating, and decaying step rules.

Each rule builds its grid from one setting: the uniform and alternating
rules from the step count N, the decaying rule from its first step tau0.
The decaying rule caps its step multiplier 1/sqrt(t_n) at ``DECAY_CAP``.
Before building, each rule bounds its step count from its setting and
rejects a grid that could take more than ``MAX_STEPS`` steps.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

# a final step below this fraction of the step before it is warned about: the
# time estimators divide the solver noise of that step by its square
SLIVER_RATIO = 1e-3

# largest step multiplier of the capped decaying rule
DECAY_CAP = 10.0

# most steps a grid rule builds (the table and benchmark grids take at most 19,800)
MAX_STEPS = 1_000_000


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing time points on [0, T] with per-step sizes."""

    points: np.ndarray
    rule: str = "custom"
    steps: np.ndarray = field(init=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or len(pts) < 2:
            raise ValueError("a time grid needs at least two points")
        if not np.all(np.isfinite(pts)):
            raise ValueError("time points must be finite")
        if pts[0] != 0.0:
            raise ValueError("time grids start at t = 0")
        steps = np.diff(pts)
        if np.any(steps <= 0):
            raise ValueError("time points must be strictly increasing")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "steps", steps)
        if len(steps) > 1 and steps[-1] < SLIVER_RATIO * steps[-2]:
            warnings.warn(f"final step {steps[-1]:.3g} of grid {self.rule!r} is "
                          f"{steps[-1] / steps[-2]:.3g} of the step before it "
                          f"(below {SLIVER_RATIO:g}); the time estimators divide its "
                          "solver noise by its square")

    @property
    def n_steps(self):
        return len(self.steps)

    @property
    def tau_final(self):
        return float(self.steps[-1])

    @property
    def max_step_ratio(self):
        r = self.steps[1:] / self.steps[:-1]
        if len(r) == 0:
            return 1.0
        return float(max(r.max(), (1.0 / r).max()))


def _check_positive(name, value):
    """Reject a grid setting that is not a finite positive number (NaN included)."""
    if not 0 < value < np.inf:
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")


def _check_size(rule, bound):
    """Reject a grid whose step count, at most ``bound``, may exceed MAX_STEPS."""
    if not bound <= MAX_STEPS:
        raise ValueError(f"the {rule} grid takes up to {bound:.7g} steps, "
                         f"more than MAX_STEPS = {MAX_STEPS}")


def uniform_grid(n_steps, T):
    if n_steps < 1:
        raise ValueError("need at least one step")
    _check_positive("T", T)
    _check_size("uniform", n_steps)
    return TimeGrid(np.linspace(0.0, T, n_steps + 1), rule=f"uniform(N={n_steps})")


def alternating_grid(n_steps, T, small):
    """Alternating steps (small*taustar, taustar, small*taustar, ...) over an even step count.

    taustar is chosen so the grid lands exactly on T.
    """
    _check_positive("T", T)
    if not 0 < small <= 1:
        raise ValueError("small-step fraction must lie in (0, 1]")
    if n_steps % 2 != 0 or n_steps < 2:
        raise ValueError("alternating grids need an even step count")
    _check_size("alternating", n_steps)
    taustar = 2.0 * T / (n_steps * (1.0 + small))
    steps = np.empty(n_steps)
    steps[0::2] = small * taustar
    steps[1::2] = taustar
    pts = np.concatenate(([0.0], np.cumsum(steps)))
    pts[-1] = T
    return TimeGrid(pts, rule=f"alternating(small={small})")


def decaying_grid(tau0, T):
    """Decaying step rule tau_n = tau0 * min(DECAY_CAP, 1/sqrt(t_n)), starting with t1 = tau0.

    The final step is truncated so the grid lands exactly on T.
    """
    _check_positive("T", T)
    _check_positive("tau0", tau0)
    if tau0 >= T:
        raise ValueError("tau0 must lie in (0, T)")
    # after t1 = tau0 every step but the last is at least tau0 times the
    # multiplier at T
    _check_size("decay", 2.0 + (T - tau0) / (tau0 * min(DECAY_CAP, T ** -0.5)))
    pts = [0.0, tau0]
    while pts[-1] < T:
        t = pts[-1]
        step = tau0 * min(DECAY_CAP, t ** -0.5)
        if step <= 0:
            raise ValueError("decay rule produced a non-positive step")
        pts.append(min(t + step, T))
    pts[-1] = T
    return TimeGrid(np.asarray(pts), rule=f"decay(cap={DECAY_CAP:g}), tau0={tau0:g}")


# the setting each grid rule reads; build_grid rejects any other it is given
RULE_SETTINGS = {"uniform": "N", "alt10": "N", "alt100": "N", "decay": "tau0"}


def build_grid(rule, T, N=None, tau0=None):
    """Dispatch by rule name: uniform | alt10 | alt100 | decay.

    The uniform and alternating rules need N; the decaying rule needs tau0.
    A setting the rule does not read is an error.
    """
    if rule not in RULE_SETTINGS:
        raise ValueError(f"unknown grid rule: {rule!r}")
    given = {"N": N, "tau0": tau0}
    setting = RULE_SETTINGS[rule]
    for name, value in given.items():
        if value is not None and name != setting:
            raise ValueError(f"the {rule} grid does not use {name}")
    if given[setting] is None:
        raise ValueError(f"the {rule} grid needs {setting}")
    if rule == "uniform":
        return uniform_grid(int(N), T)
    if rule == "decay":
        return decaying_grid(float(tau0), T)
    return alternating_grid(int(N), T, small=0.1 if rule == "alt10" else 0.01)
