"""Wave integrator: scheme equivalence, conservation, eigenmode accuracy, the scalar model
(unforced and forced) as its 1x1 case."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wavest.estimators import WaveEstimatorAccumulator
from wavest.fem import FemSpace, SolveCounter, jacobi, solve_spd
from wavest.grids import TimeGrid, alternating_grid, uniform_grid
from wavest.manufactured import gaussian_pulse, standing_mode
from wavest.mesh import generate_structured
from wavest.newmark import NewmarkWaveSolver, WaveProblem
from wavest.ode import OdeProblem, solve_newmark_ode

from oracles import element_gradients, jittered_crisscross

RNG = np.random.default_rng(11)

# property inputs: jittered crisscross meshes of 9 to 145 vertices, and step
# lists of random steps in [1e-3, 0.05] or of 100:1 alternation down to 1e-5
MESHES = st.builds(jittered_crisscross, st.integers(2, 8), st.integers(0, 2 ** 16))
STEP = st.floats(1e-3, 0.05)
STEP_LISTS = st.one_of(st.lists(STEP, min_size=2, max_size=40),
                       st.builds(lambda tau, k: [tau, tau / 100.0] * k, STEP, st.integers(1, 20)))
# each property takes 0.4-0.9 s at this many examples
PROPERTY_EXAMPLES = 60


def make_problem(solution):
    grad_u0, grad_v0 = solution.initial_data()
    return WaveProblem(f=solution.f, grad_u0=grad_u0, grad_v0=grad_v0)


def zero_gradient(x, y, out=None):
    return np.zeros_like(x), np.zeros_like(x)


def zero_problem():
    return WaveProblem(f=None, grad_u0=zero_gradient, grad_v0=zero_gradient)


def gradient_field(space, w):
    """(d/dx, d/dy) of the P1 function with free-vertex values w, as initial data take it."""
    grads = element_gradients(space, space.full(w))

    def grad(x, y, out=None):
        return (np.broadcast_to(grads[:, [0]], x.shape),
                np.broadcast_to(grads[:, [1]], x.shape))
    return grad


def loads(space, state):
    """Forcing loads (f, phi_i) on the free vertices from the state's projection."""
    return (space.mass @ state.f_h)[space.free]


def discrete_eigenpair(space, iters=40):
    """Smallest generalized eigenpair K w = lam M w by inverse iteration."""
    w = np.sin(np.pi * space.mesh.vertices[space.free, 0]) \
        * np.sin(np.pi * space.mesh.vertices[space.free, 1])
    for _ in range(iters):
        w = solve_spd(space.stiffness_ff, space.mass_ff @ w,
                      precond=jacobi(space.stiffness_ff.diagonal()), tol=1e-13)
        w /= np.linalg.norm(w)
    lam = (w @ (space.stiffness_ff @ w)) / (w @ (space.mass_ff @ w))
    return w, lam


class TestInitialState:
    def test_zero_data(self):
        space = FemSpace(generate_structured(4))
        solver = NewmarkWaveSolver(zero_problem(), space)
        s0 = solver.initial_state()
        assert np.all(s0.u == 0.0)
        assert np.all(s0.v == 0.0)
        assert s0.f_h == 0.0 and isinstance(s0.f_h, float)   # no forcing, no projection
        assert np.all(s0.a == 0.0)

    def test_initial_acceleration_solves_the_mass_system(self):
        # a_0 is the semi-discrete equation at t = 0: M a_0 = F_0 - K u_0
        space = FemSpace(generate_structured(6))
        s0 = NewmarkWaveSolver(make_problem(gaussian_pulse()), space).initial_state()
        assert s0.a.shape == (len(space.free),)
        rhs = loads(space, s0) - space.stiffness_ff @ s0.u
        assert np.any(loads(space, s0) != 0.0)
        assert np.linalg.norm(space.mass_ff @ s0.a - rhs) <= space.tol * np.linalg.norm(rhs)

    def test_idempotent_on_p1_data(self):
        space = FemSpace(generate_structured(4), tol=1e-12)
        w = RNG.normal(size=len(space.free))
        problem = WaveProblem(f=None, grad_u0=gradient_field(space, w), grad_v0=zero_gradient)
        s0 = NewmarkWaveSolver(problem, space).initial_state()
        np.testing.assert_allclose(s0.u, w, atol=1e-9)

    def test_gaussian_projection_rate(self):
        sol = gaussian_pulse()
        problem = make_problem(sol)
        errs = []
        for n in (16, 32, 64):
            space = FemSpace(generate_structured(n), tol=1e-12)
            s0 = NewmarkWaveSolver(problem, space).initial_state()
            # |u0 - Pi u0|_H1^2 = |u0|^2 - |Pi u0|^2
            exact_sq = space.assemble_load(lambda x, y, out=None: sol.grad_u(0.0, x, y)[0] ** 2
                                           + sol.grad_u(0.0, x, y)[1] ** 2).sum()
            errs.append(np.sqrt(max(exact_sq - space.h1_seminorm(s0.u) ** 2, 0.0)))
        rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(np.abs(rates - 1.0) < 0.25)


class TestStep:
    def test_zero_data_stays_zero(self):
        space = FemSpace(generate_structured(3))
        solver = NewmarkWaveSolver(zero_problem(), space)
        state = solver.initial_state()
        for _ in range(3):
            state = solver.step(state, 0.1)
            assert np.all(state.u == 0.0)
            assert np.all(state.v == 0.0)

    def test_first_step_solves_displacement_form(self):
        # the one-step map satisfies the first-step displacement relation:
        # (M + tau^2/4 K) u1 = (M - tau^2/4 K) u0 + tau M v0 + tau^2/4 (b1 + b0)
        sol = gaussian_pulse()
        space = FemSpace(generate_structured(8), tol=1e-13)
        solver = NewmarkWaveSolver(make_problem(sol), space)
        s0 = solver.initial_state()
        tau = 0.02
        s1 = solver.step(s0, tau)
        b0, b1 = loads(space, s0), loads(space, s1)
        lhs = space.mass_ff @ s1.u + tau ** 2 / 4 * (space.stiffness_ff @ s1.u)
        rhs = space.mass_ff @ s0.u - tau ** 2 / 4 * (space.stiffness_ff @ s0.u) \
            + tau * (space.mass_ff @ s0.v) + tau ** 2 / 4 * (b1 + b0)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(rhs)

    def test_velocity_recovery_relation(self):
        sol = gaussian_pulse()
        space = FemSpace(generate_structured(6), tol=1e-12)
        solver = NewmarkWaveSolver(make_problem(sol), space)
        s0 = solver.initial_state()
        tau = 0.03
        s1 = solver.step(s0, tau)
        recovered = 2.0 * (s1.u - s0.u) / tau - s0.v
        np.testing.assert_allclose(s1.v, recovered, atol=1e-13)

    @settings(max_examples=PROPERTY_EXAMPLES, deadline=None)
    @given(mesh=MESHES, taus=STEP_LISTS)
    @example(mesh=generate_structured(8), taus=[0.02, 0.013, 0.02, 0.008])
    def test_two_step_recurrence_residual(self, mesh, taus):
        # states produced by the one-step map satisfy the two-step
        # displacement recurrence with variable steps, up to the solve
        # tolerance and the rounding of u's difference quotients, about
        # eps |M u| / tau.  Over 1,000 random inputs the residual beyond
        # 1e-11 of the scale stayed below 0.81 of that floor.
        sol = gaussian_pulse()
        space = FemSpace(mesh, tol=1e-13)
        solver = NewmarkWaveSolver(make_problem(sol), space)
        states = [solver.initial_state()]
        for tau in taus:
            states.append(solver.step(states[-1], tau))
        M, K = space.mass_ff, space.stiffness_ff
        for n in range(1, len(taus)):
            tn, tm = taus[n], taus[n - 1]
            u_np, u_n, u_nm = states[n + 1].u, states[n].u, states[n - 1].u
            b = [loads(space, states[j]) for j in (n - 1, n, n + 1)]
            resid = M @ ((u_np - u_n) / tn - (u_n - u_nm) / tm) \
                + K @ (tn * (u_np + u_n) + tm * (u_n + u_nm)) / 4 \
                - (tn * (b[2] + b[1]) + tm * (b[1] + b[0])) / 4
            scale = np.linalg.norm(M @ ((u_np - u_n) / tn)) + np.linalg.norm(
                K @ (tn * (u_np + u_n)) / 4)
            rounding = np.finfo(float).eps * np.linalg.norm(M @ u_n) / min(tn, tm)
            assert np.linalg.norm(resid) <= 1e-11 * scale + 8.0 * rounding

    def test_step_matrix_values_refreshed_in_place(self):
        # one matrix per space; each change of tau rewrites its values to
        # exactly those of a freshly built M + tau^2/4 K, and its Jacobi
        # preconditioner divides by the bits of the matrix's own diagonal
        space = FemSpace(generate_structured(5, "crisscross"))
        first, _ = space.shifted_system(0.1 * 0.1 / 4.0)
        for tau in (0.1, 0.001, 0.1, 0.037):
            matrix, precond = space.shifted_system(tau * tau / 4.0)
            assert matrix is first
            assert space.shifted_system(tau * tau / 4.0)[1] is precond   # formed once per scale
            rebuilt = (space.mass_ff + (tau * tau / 4.0) * space.stiffness_ff).tocsr()
            np.testing.assert_array_equal(matrix.indices, rebuilt.indices)
            np.testing.assert_array_equal(matrix.data, rebuilt.data)
            r = RNG.normal(size=matrix.shape[0])
            assert precond(r).tobytes() == (r / matrix.diagonal()).tobytes()

    def test_warm_start_from_the_acceleration(self):
        # the step solves for a_new within tol, so M a_new + K u_new = F_new
        # holds within tol; u and v follow the update formulas; CG from a
        # takes fewer iterations than CG from zero on the same system
        sol = gaussian_pulse()
        space = FemSpace(generate_structured(12, "crisscross"), tol=1e-10)
        solver = NewmarkWaveSolver(make_problem(sol), space)
        state = solver.initial_state()
        for tau in (0.02, 0.01, 0.02):
            state = solver.step(state, tau)
        tau = 0.015
        new = solver.step(state, tau)
        M, K = space.mass_ff, space.stiffness_ff
        u, v, a = state.u, state.v, state.a
        load = loads(space, new)
        rhs = load - K @ (u + tau * v + tau * tau / 4.0 * a)
        # the CG residual of the step system, up to rounding in forming u_new
        assert np.linalg.norm(M @ new.a + K @ new.u - load) <= 1.01 * space.tol * np.linalg.norm(rhs)
        np.testing.assert_allclose(new.u, u + tau * v + tau * tau / 4.0 * (a + new.a),
                                   rtol=0, atol=1e-14 * np.abs(new.u).max())
        np.testing.assert_allclose(new.v, v + tau / 2.0 * (a + new.a),
                                   rtol=0, atol=1e-14 * np.abs(new.v).max())

        matrix, _ = space.shifted_system(tau * tau / 4.0)
        from_a, from_zero = SolveCounter(), SolveCounter()
        precond = jacobi(matrix.diagonal())
        x = solve_spd(matrix, rhs, precond=precond, tol=space.tol, counter=from_a, x0=a)
        solve_spd(matrix, rhs, precond=precond, tol=space.tol, counter=from_zero)
        np.testing.assert_allclose(x, new.a, rtol=0, atol=1e-14 * np.abs(new.a).max())
        assert 0 < from_a.iterations < from_zero.iterations

    def test_scalar_model_is_the_1x1_case(self):
        # one free vertex, zero forcing: the stepper's (u, v) trajectory is the
        # scalar model's with A = k/m on the same alternating grid
        space = FemSpace(generate_structured(2))
        assert len(space.free) == 1
        m = float(space.mass_ff.toarray()[0, 0])
        k = float(space.stiffness_ff.toarray()[0, 0])
        sol = standing_mode()
        problem = WaveProblem(f=None, grad_u0=sol.initial_data()[0], grad_v0=zero_gradient)
        grid = alternating_grid(n_steps=20, T=1.0, small=0.01)
        states = list(NewmarkWaveSolver(problem, space).run(grid))
        u = np.array([s.u[0] for s in states])
        v = np.array([s.v[0] for s in states])
        assert u[0] != 0.0
        traj = solve_newmark_ode(OdeProblem(A=k / m, u0=u[0], v0=v[0]), grid)
        np.testing.assert_allclose(u, traj.u, rtol=1e-12)
        np.testing.assert_allclose(v, traj.v, rtol=1e-12)

    @settings(max_examples=PROPERTY_EXAMPLES, deadline=None)
    @given(mesh=MESHES, taus=STEP_LISTS)
    @example(mesh=generate_structured(8), taus=[0.011] * 100)
    def test_energy_conservation_without_forcing(self, mesh, taus):
        # over 1,600 random inputs the relative drift stayed below 7.6e-15
        space = FemSpace(mesh, tol=1e-12)
        problem = make_problem(standing_mode())
        solver = NewmarkWaveSolver(problem, space)
        state = solver.initial_state()
        e0 = solver.discrete_energy(state)
        for tau in taus:
            state = solver.step(state, tau)
        assert solver.discrete_energy(state) == pytest.approx(e0, rel=1e-12)

    def test_eigenmode_phase_accuracy_second_order(self):
        # with a discrete eigenvector as data the semi-discrete solution is
        # cos(sqrt(lam) t) w exactly, so the time error is isolated
        space = FemSpace(generate_structured(6), tol=1e-13)
        w, lam = discrete_eigenpair(space)
        problem = WaveProblem(f=None, grad_u0=gradient_field(space, w), grad_v0=zero_gradient)
        errs = []
        for n_steps in (25, 50, 100):
            solver = NewmarkWaveSolver(problem, space)
            state = solver.initial_state()
            np.testing.assert_allclose(state.u, w, atol=1e-10)
            tau = 1.0 / n_steps
            for _ in range(n_steps):
                state = solver.step(state, tau)
            omega = np.sqrt(lam)
            u_ref = np.cos(omega * 1.0) * w
            v_ref = -omega * np.sin(omega * 1.0) * w
            errs.append(np.hypot(space.l2_norm(space.full(state.v - v_ref)),
                                 space.h1_seminorm(state.u - u_ref)))
        rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        np.testing.assert_allclose(rates, 2.0, atol=0.05)


def centre_hat(x, y):
    """The hat of the centre vertex (1/2, 1/2) of ``generate_structured(2)``."""
    return np.maximum(0.0, 1.0 - 2.0 * np.maximum.reduce([np.abs(x - 0.5), np.abs(y - 0.5),
                                                          np.abs(x - y)]))


class TestForcedScalarCase:
    """The forced scalar model u'' + A u = g as the stepper's 1x1 case.

    ``generate_structured(2)`` has one free vertex, the centre, with mass m
    and stiffness k.  A forcing g(t) phi_c has the L2 projection g(t) e_c,
    so u_h = u(t) phi_c solves the semi-discrete problem whenever u solves
    u'' + (k/m) u = g.  The scheme is exact on u = t and u = t^2, and both
    time estimators vanish there, up to rounding.
    """

    # name -> (u, u', g given A = k/m, whether v(0) = phi_c, the alternating grid)
    CASES = {
        "linear": (lambda t: t, lambda t: np.ones_like(t), lambda A, t: A * t, True, (30, 0.2)),
        "quadratic": (lambda t: t * t, lambda t: 2.0 * t, lambda A, t: 2.0 + A * t * t, False,
                      (40, 0.5)),
    }

    def run(self, case):
        space = FemSpace(generate_structured(2))
        assert len(space.free) == 1
        A = float(space.stiffness_ff.toarray()[0, 0] / space.mass_ff.toarray()[0, 0])
        u, du, g, moving, (n_steps, small) = self.CASES[case]
        grad_v0 = gradient_field(space, np.ones(1)) if moving else zero_gradient
        problem = WaveProblem(f=lambda t, x, y, out=None: g(A, t) * centre_hat(x, y),
                              grad_u0=zero_gradient, grad_v0=grad_v0)
        grid = alternating_grid(n_steps=n_steps, T=1.0, small=small)
        acc = WaveEstimatorAccumulator(space)
        states = []
        for state in NewmarkWaveSolver(problem, space).run(grid):
            acc.push(state)
            states.append(state)
        t = grid.points
        return (u(t), du(t), np.array([s.u[0] for s in states]),
                np.array([s.v[0] for s in states]), acc.increments())

    def test_linear_solution_is_exact(self):
        u, du, u_h, v_h, _ = self.run("linear")
        np.testing.assert_allclose(u_h, u, rtol=0, atol=1e-12)
        np.testing.assert_allclose(v_h, du, rtol=0, atol=1e-12)

    def test_quadratic_solution_is_exact(self):
        u, du, u_h, v_h, _ = self.run("quadratic")
        np.testing.assert_allclose(u_h, u, rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(v_h, du, rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("case", ["linear", "quadratic"])
    def test_exact_solution_gives_zero_estimators(self, case):
        *_, (inc3, inc5) = self.run(case)
        assert inc3.sum() <= 1e-10
        assert inc5.sum() <= 1e-10


class TestRun:
    def test_zero_run_emits_zero_states(self):
        space = FemSpace(generate_structured(3))
        solver = NewmarkWaveSolver(zero_problem(), space)
        grid = TimeGrid(np.array([0.0, 0.1, 0.2, 0.3]))
        states = list(solver.run(grid))
        assert len(states) == 4
        assert all(np.all(s.u == 0.0) for s in states)

    def test_deterministic_rerun(self):
        sol = gaussian_pulse()
        space = FemSpace(generate_structured(6))
        grid = uniform_grid(5, T=1.0)
        runs = []
        for _ in range(2):
            solver = NewmarkWaveSolver(make_problem(sol), space)
            runs.append([s.u.copy() for s in solver.run(grid)])
        for a, b in zip(*runs):
            np.testing.assert_array_equal(a, b)
