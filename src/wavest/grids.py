"""Time grid construction: uniform, alternating, and decaying step rules.

The decaying rule caps its step multiplier 1/sqrt(t_n) at ``DECAY_CAP``
(the literal rule does not cap it).
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
    def final_time(self):
        return float(self.points[-1])

    @property
    def tau_final(self):
        return float(self.steps[-1])

    @property
    def max_step_ratio(self):
        r = self.steps[1:] / self.steps[:-1]
        if len(r) == 0:
            return 1.0
        return float(max(r.max(), (1.0 / r).max()))


def uniform_grid(n_steps, T=1.0):
    if n_steps < 1:
        raise ValueError("need at least one step")
    if T <= 0:
        raise ValueError("final time must be positive")
    return TimeGrid(np.linspace(0.0, T, n_steps + 1), rule=f"uniform(N={n_steps})")


def alternating_grid(n_steps=None, T=1.0, small=0.1, taustar=None):
    """Alternating steps (small*taustar, taustar, small*taustar, ...).

    Either ``n_steps`` (even; taustar is then chosen so the grid lands
    exactly on T) or ``taustar`` may be given.  With ``taustar`` given, steps
    are emitted until T is reached and the last step is truncated.
    """
    if T <= 0:
        raise ValueError("final time must be positive")
    if not 0 < small <= 1:
        raise ValueError("small-step fraction must lie in (0, 1]")
    if (n_steps is None) == (taustar is None):
        raise ValueError("give exactly one of n_steps or taustar")
    if n_steps is not None:
        if n_steps % 2 != 0 or n_steps < 2:
            raise ValueError("alternating grids need an even step count")
        taustar = 2.0 * T / (n_steps * (1.0 + small))
        steps = np.empty(n_steps)
        steps[0::2] = small * taustar
        steps[1::2] = taustar
    else:
        if taustar <= 0:
            raise ValueError("taustar must be positive")
        steps_list = []
        t = 0.0
        k = 0
        while t < T and not np.isclose(t, T, rtol=0.0, atol=1e-14 * T):
            s = small * taustar if k % 2 == 0 else taustar
            s = min(s, T - t)
            steps_list.append(s)
            t += s
            k += 1
        steps = np.array(steps_list)
    pts = np.concatenate(([0.0], np.cumsum(steps)))
    pts[-1] = T
    return TimeGrid(pts, rule=f"alternating(small={small})")


def decaying_grid(tau0, T=1.0, literal=False):
    """Decaying step rule tau_n = tau0 / sqrt(t_n), starting with t1 = tau0.

    The literal rule jumps from tau0 to tau0/sqrt(tau0) at the second step;
    by default the multiplier is capped at ``DECAY_CAP`` and the final step
    is truncated so the grid lands exactly on T.  Pass ``literal=True`` for the
    uncapped variant.
    """
    if tau0 <= 0 or tau0 >= T:
        raise ValueError("tau0 must lie in (0, T)")
    pts = [0.0, tau0]
    while pts[-1] < T:
        t = pts[-1]
        mult = t ** -0.5
        if not literal:
            mult = min(DECAY_CAP, mult)
        step = tau0 * mult
        if step <= 0:
            raise ValueError("decay rule produced a non-positive step")
        pts.append(min(t + step, T))
    pts[-1] = T
    name = "decay-literal" if literal else f"decay(cap={DECAY_CAP:g})"
    return TimeGrid(np.asarray(pts), rule=f"{name}, tau0={tau0:g}")


def build_grid(rule, T, N=None, tau0=None, taustar=None):
    """Dispatch by rule name: uniform | alt10 | alt100 | decay | decay-literal.

    ``uniform`` needs N; the alternating rules need N or taustar; the
    decaying rules need tau0.
    """
    if rule == "uniform":
        if N is None:
            raise ValueError("the uniform grid needs N")
        return uniform_grid(int(N), T)
    if rule in ("alt10", "alt100"):
        if N is None and taustar is None:
            raise ValueError(f"the {rule} grid needs N or taustar")
        small = 0.1 if rule == "alt10" else 0.01
        return alternating_grid(
            n_steps=int(N) if N is not None else None,
            T=T,
            small=small,
            taustar=taustar,
        )
    if rule in ("decay", "decay-literal"):
        if tau0 is None:
            raise ValueError(f"the {rule} grid needs tau0")
        return decaying_grid(float(tau0), T, literal=rule == "decay-literal")
    raise ValueError(f"unknown grid rule: {rule!r}")
