"""Scalar model problem u'' + A u = f with the trapezoidal Newmark scheme.

This is the wave equation stripped of the space variable: the time stepping,
the true-error measure and both a posteriori time estimators survive
unchanged, which makes the scalar problem the reference case for validating
estimator behaviour on uniform and strongly graded time grids.

The solver advances the classical displacement/velocity/acceleration triple

    u_{n+1} = (u_n + tau v_n + tau^2/4 (a_n + f_{n+1})) / (1 + A tau^2/4)
    a_{n+1} = f_{n+1} - A u_{n+1}
    v_{n+1} = v_n + tau (a_n + a_{n+1}) / 2

which is algebraically identical to the two-step displacement recurrence
plus velocity recovery v_{n+1} = 2(u_{n+1}-u_n)/tau - v_n (the tests check
both identities).  The recovery itself is not used: it would divide rounding
errors of u by the step size, and the estimators' high-order differences
divide them again.  The wave stepper (``newmark``) advances the same triple
with M and K in place of 1 and A, solving for a_{n+1} first; here that 1x1
solve is the division above, and the tests check that a wave run with one
free vertex follows this scheme.

Both time estimators reduce to per-node payloads here; the time weights, the
initial slab and the 5-point estimator's start at t_3 are the wave problem's
(``stencils.eta3_increments``/``eta5_increments``).  The cumulative functions
return running totals, one per step, from which the harness builds the
per-step trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .grids import TimeGrid
from .stencils import (eta3_increments, eta5_increments, hat_second_diff, hat_times,
                       second_diff)


@dataclass(frozen=True)
class OdeProblem:
    """u'' + A u = f on [0, T] with u(0) = u0, u'(0) = v0."""

    A: float
    f: Optional[Callable[[np.ndarray], np.ndarray]]  # None means f = 0
    u0: float
    v0: float
    T: float
    exact: Optional[tuple] = None  # (u(t), u'(t)) callables

    def __post_init__(self):
        if self.A <= 0:
            raise ValueError("stiffness constant A must be positive")
        if self.T <= 0:
            raise ValueError("final time must be positive")

    def f_samples(self, t):
        t = np.asarray(t, dtype=float)
        if self.f is None:
            return np.zeros_like(t)
        return np.asarray(self.f(t), dtype=float)


@dataclass(frozen=True)
class OdeTrajectory:
    grid: TimeGrid
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        n = len(self.grid.points)
        if len(self.u) != n or len(self.v) != n:
            raise ValueError("u and v must have one value per grid point")


def solve_newmark_ode(problem: OdeProblem, grid: TimeGrid) -> OdeTrajectory:
    """March the trapezoidal Newmark scheme over the grid."""
    if grid.n_steps < 1:
        raise ValueError("grid must contain at least one step")
    t = grid.points
    tau = grid.steps
    fs = problem.f_samples(t)
    A = problem.A
    n = grid.n_steps
    u = np.empty(n + 1)
    v = np.empty(n + 1)
    a = np.empty(n + 1)
    u[0] = problem.u0
    v[0] = problem.v0
    a[0] = fs[0] - A * u[0]
    for k in range(n):
        s = tau[k]
        u[k + 1] = (u[k] + s * v[k] + s * s / 4.0 * (a[k] + fs[k + 1])) / (1.0 + A * s * s / 4.0)
        a[k + 1] = fs[k + 1] - A * u[k + 1]
        v[k + 1] = v[k] + s / 2.0 * (a[k] + a[k + 1])
    return OdeTrajectory(grid=grid, u=u, v=v)


def ode_energy_error(traj: OdeTrajectory, exact, A) -> np.ndarray:
    """sqrt(|v_n - u'(t_n)|^2 + A |u_n - u(t_n)|^2) at every grid point t_n."""
    u_exact, du_exact = exact
    t = traj.grid.points
    dv = traj.v - np.asarray(du_exact(t), dtype=float)
    du = traj.u - np.asarray(u_exact(t), dtype=float)
    return np.sqrt(dv * dv + A * du * du)


def effectivity(e, eta):
    """Ratio estimator / true error."""
    if e <= 0:
        raise ZeroDivisionError("effectivity undefined for zero true error")
    return eta / e


def _shifted(w):
    """The window (w[k-1], w[k], w[k+1]) over every interior index k, as views."""
    return w[:-2], w[1:-1], w[2:]


def eta3_ode_samples(traj: OdeTrajectory, f_samples, A) -> np.ndarray:
    """Per-step increments tau_k eta_T(t_k), k = 0..N-1, of the 3-point time estimator.

    The payload at an interior node t_k is sqrt(A (d2_k v)^2
    + (d2_k f - A d2_k u)^2); ``stencils.eta3_increments`` weights it.
    """
    tau = traj.grid.steps
    steps = (tau[:-1], tau[1:])
    d2v = second_diff(_shifted(traj.v), steps)
    d2u = second_diff(_shifted(traj.u), steps)
    d2f = second_diff(_shifted(np.asarray(f_samples, dtype=float)), steps)
    return eta3_increments(tau, np.sqrt(A * d2v ** 2 + (d2f - A * d2u) ** 2))


def eta5_ode_samples(traj: OdeTrajectory, A) -> np.ndarray:
    """Per-step increments tau_k eta-hat_T(t_k), k = 3..N-1, of the 5-point time estimator.

    The payload at t_k is sqrt(A (d2_k v)^2 + (d4_k u)^2), where d4_k u is
    the staggered second difference of d2 u at nodes k-2, k-1, k;
    ``stencils.eta5_increments`` weights it.
    """
    tau = traj.grid.steps
    if traj.grid.n_steps < 4:
        raise ValueError("the 5-point estimator needs at least 4 steps")
    steps = (tau[:-1], tau[1:])
    d2v = second_diff(_shifted(traj.v), steps)[2:]
    d2u = second_diff(_shifted(traj.u), steps)
    d4u = hat_second_diff(_shifted(d2u), _shifted(hat_times(traj.grid.points)))
    return eta5_increments(tau, np.sqrt(A * d2v ** 2 + d4u ** 2))


def eta3_ode_cumulative(traj: OdeTrajectory, f_samples, A) -> np.ndarray:
    """Running totals sum_{k<n} tau_k eta_T(t_k) of the 3-point estimator, n = 1..N."""
    return np.cumsum(eta3_ode_samples(traj, f_samples, A))


def eta5_ode_cumulative(traj: OdeTrajectory, A) -> np.ndarray:
    """Running totals sum_{k=3}^{n-1} tau_k eta-hat_T(t_k) of the 5-point estimator, n = 4..N."""
    return np.cumsum(eta5_ode_samples(traj, A))
