"""Trapezoidal-Newmark time integration of the semi-discrete wave equation.

The stepper advances the displacement/velocity/acceleration triple on the
free vertices in the form the scalar model uses (``ode.solve_newmark_ode``),
with M and K the free-vertex mass and stiffness matrices and F the forcing
loads:

    (M + tau^2/4 K) a_{n+1} = F_{n+1} - K (u_n + tau v_n + tau^2/4 a_n)
    u_{n+1} = u_n + tau v_n + tau^2/4 (a_n + a_{n+1})
    v_{n+1} = v_n + tau/2 (a_n + a_{n+1})

The initial acceleration costs one mass solve, M a_0 = F_0 - K u_0.  This is
algebraically the two-step displacement recurrence, and the first step needs
no special casing.  The solve error of a_{n+1} reaches u scaled by tau^2/4
and v by tau/2, so no solve error is divided by tau.  The time estimators'
second and fourth differences divide u and v by tau^2 to tau^4; with this
form they measure the discretisation error, not the solver tolerance, on
grids with step ratio 100 too.

Per step one SPD system with matrix (M + tau^2/4 K) is solved by CG,
started from a_n.  The space gives the matrix and its preconditioner
(``FemSpace.shifted_system``, with scale tau^2/4); the stepper forms
neither.

Initial data enter through H1_0-orthogonal projections of u0 and v0; the
forcing enters through its L2 projections at the grid times, which are kept
on the state because both time estimators consume them.  A problem without
forcing (f = None) carries no projection (``WaveState.f_h`` is None): it
evaluates no forcing and its steps form no loads.  A problem carries no
final time: ``run`` takes its times from the grid, whose rules check T.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from .fem import FemSpace, solve_spd
from .grids import TimeGrid


@dataclass(frozen=True)
class WaveProblem:
    """Wave equation data on the unit-square mesh: u_tt - Lap(u) = f, u = 0 on the boundary."""

    # each called per quadrature block with out=FemSpace.block_work(b), four
    # arrays it may compute in or ignore
    f: Optional[Callable]          # f(t, x, y, out=None); None means zero forcing
    grad_u0: Callable              # (du0/dx, du0/dy)(x, y, out=None)
    grad_v0: Callable              # (dv0/dx, dv0/dy)(x, y, out=None)


@dataclass(frozen=True)
class WaveState:
    """One time level: u, v and a on the free vertices, f_h on all vertices."""

    t: float
    u: np.ndarray
    v: np.ndarray
    f_h: Optional[np.ndarray]   # L2 projection of f(t); None without forcing
    a: np.ndarray     # acceleration, M a = F - K u


class NewmarkWaveSolver:
    """Stepper bound to one problem and one finite element space."""

    def __init__(self, problem: WaveProblem, space: FemSpace):
        self.problem = problem
        self.space = space

    # -- data projection ----------------------------------------------------

    def project_forcing(self, t) -> Optional[np.ndarray]:
        """The L2 projection of f(t) on all vertices; None without forcing."""
        f = self.problem.f
        if f is None:
            return None
        return self.space.l2_project(lambda x, y, out=None: f(t, x, y, out=out))

    def initial_state(self) -> WaveState:
        space = self.space
        u0 = space.h1_project(self.problem.grad_u0)
        v0 = space.h1_project(self.problem.grad_v0)
        f0 = self.project_forcing(0.0)
        a0 = solve_spd(space.mass_ff, self._rhs(f0, space.stiffness_ff @ u0), tol=space.tol,
                       precond=space.mass_ff_jacobi)
        return WaveState(t=0.0, u=u0, v=v0, f_h=f0, a=a0)

    def _rhs(self, f_h, ku):
        """Forcing loads (f, phi_i) less ``ku`` on the free vertices, from an L2 projection of f.

        Without forcing (``f_h`` None) this is 0 - ku, in place.
        """
        if f_h is None:
            return np.subtract(0.0, ku, out=ku)
        return (self.space.mass @ f_h)[self.space.free] - ku

    # -- stepping -------------------------------------------------------------

    def step(self, state: WaveState, tau) -> WaveState:
        """Advance one step of size tau from the given state (the module's scheme)."""
        if tau <= 0:
            raise ValueError("step must be positive")
        space = self.space
        t_new = state.t + tau
        f_new = self.project_forcing(t_new)
        u, v, a = state.u, state.v, state.a
        predictor = u + tau * v + (tau * tau / 4.0) * a   # u_new less its a_new term
        rhs = self._rhs(f_new, space.stiffness_ff @ predictor)
        system, precond = space.shifted_system(tau * tau / 4.0)
        a_new = solve_spd(system, rhs, tol=space.tol, x0=a, precond=precond)
        return WaveState(t=t_new, u=predictor + (tau * tau / 4.0) * a_new,
                         v=v + (tau / 2.0) * (a + a_new), f_h=f_new, a=a_new)

    def run(self, grid: TimeGrid) -> Iterator[WaveState]:
        """Yield the initial state and every stepped state in order, at the grid's times."""
        state = self.initial_state()
        yield state
        for k, tau in enumerate(grid.steps):
            try:
                state = self.step(state, tau)
            except Exception as exc:
                raise RuntimeError(f"time step {k} (t = {grid.points[k]:g}) failed: {exc}") from exc
            yield state

    def discrete_energy(self, state: WaveState) -> float:
        """(1/2) (v' M v + u' K u); conserved exactly for zero forcing."""
        space = self.space
        u, v = state.u, state.v
        return 0.5 * float(v @ (space.mass_ff @ v) + u @ (space.stiffness_ff @ u))
