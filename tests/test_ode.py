"""Scalar model u'' + A u = 0: the march, velocity recovery, error and estimators.

The forced scalar model is the wave stepper's 1x1 case (tests/test_newmark.py).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavest.grids import TimeGrid, alternating_grid, build_grid, uniform_grid
from wavest.harness import ExperimentConfig, effectivity, run_ode_experiment
from wavest.ode import (OdeProblem, eta3_ode_cumulative, eta3_ode_samples,
                        eta5_ode_cumulative, eta5_ode_samples, ode_energy_error,
                        solve_newmark_ode)

RNG = np.random.default_rng(7)


def cosine_problem(A):
    """The tables' problem u'' + A u = 0, u(0) = 1, u'(0) = 0."""
    return OdeProblem(A=A, u0=1.0, v0=0.0)


def cosine_exact(A):
    """Its solution (u(t), u'(t)) = (cos(sqrt(A) t), -sqrt(A) sin(sqrt(A) t))."""
    w = np.sqrt(A)
    return lambda t: np.cos(w * t), lambda t: -w * np.sin(w * t)


def reference_newmark(problem, grid):
    """Per-index oracle of solve_newmark_ode: the same formula on numpy scalars."""
    tau = grid.steps
    A = problem.A
    n = grid.n_steps
    u, v, a = np.empty(n + 1), np.empty(n + 1), np.empty(n + 1)
    u[0] = problem.u0
    v[0] = problem.v0
    a[0] = -A * u[0]
    for k in range(n):
        s = tau[k]
        u[k + 1] = (u[k] + s * v[k] + s * s / 4.0 * a[k]) / (1.0 + A * s * s / 4.0)
        a[k + 1] = -A * u[k + 1]
        v[k + 1] = v[k] + s / 2.0 * (a[k] + a[k + 1])
    return u, v


class TestSolver:
    @pytest.mark.parametrize("rule,N", [("uniform", 1000), ("alt10", 1816), ("alt100", 1978)])
    @pytest.mark.parametrize("A", [100.0, 10000.0])
    def test_bit_equal_to_numpy_scalar_loop(self, rule, N, A):
        problem = cosine_problem(A)
        grid = build_grid(rule, 1.0, N=N)
        u, v = reference_newmark(problem, grid)
        traj = solve_newmark_ode(problem, grid)
        assert np.array_equal(traj.u, u) and np.array_equal(traj.v, v)

    @pytest.mark.parametrize("A", [50.0, 7])
    def test_bit_equal_to_numpy_scalar_loop_general_data(self, A):
        # non-zero initial velocity, and an integer A
        problem = OdeProblem(A=A, u0=0.3, v0=-1.0)
        grid = build_grid("alt100", 1.0, N=196)
        u, v = reference_newmark(problem, grid)
        traj = solve_newmark_ode(problem, grid)
        assert np.array_equal(traj.u, u) and np.array_equal(traj.v, v)

    @settings(max_examples=60)
    @given(steps=st.lists(st.floats(1.0, 100.0), min_size=1, max_size=300),
           A=st.floats(1.0, 1e4), v0=st.floats(-100.0, 100.0))
    def test_discrete_energy_conserved_without_forcing(self, steps, A, v0):
        # the trapezoidal scheme keeps v_n^2 + A u_n^2 up to rounding, on
        # grids whose neighbouring steps differ by up to a factor 100
        steps = np.asarray(steps)
        grid = TimeGrid(np.concatenate(([0.0], np.cumsum(steps / steps.sum()))))
        traj = solve_newmark_ode(OdeProblem(A=A, u0=1.0, v0=v0), grid)
        energy = traj.v ** 2 + A * traj.u ** 2
        n = np.arange(len(energy))
        assert np.all(np.abs(energy - energy[0]) <= 1e-13 * n * energy[0])

    def test_first_step_hand_value(self):
        grid = TimeGrid(np.array([0.0, 0.1, 0.2]))
        traj = solve_newmark_ode(OdeProblem(A=1.0, u0=1.0, v0=0.0), grid)
        assert traj.u[1] == pytest.approx(0.9975 / 1.0025, abs=1e-15)

    def test_zero_data_stays_zero(self):
        grid = alternating_grid(n_steps=20, T=1.0, small=0.1)
        traj = solve_newmark_ode(OdeProblem(A=7.0, u0=0.0, v0=0.0), grid)
        assert np.all(traj.u == 0.0) and np.all(traj.v == 0.0)

    def test_two_step_recurrence_residual(self):
        # the marched trajectory satisfies the displacement two-step relation
        # (the forced relation is checked on the wave stepper's 1x1 case)
        A = 50.0
        grid = alternating_grid(n_steps=30, T=1.0, small=0.1)
        traj = solve_newmark_ode(OdeProblem(A=A, u0=0.3, v0=-1.0), grid)
        tau = grid.steps
        u = traj.u
        for n in range(1, grid.n_steps):
            lhs = ((u[n + 1] - u[n]) / tau[n] - (u[n] - u[n - 1]) / tau[n - 1]
                   + A * (tau[n] * (u[n + 1] + u[n]) + tau[n - 1] * (u[n] + u[n - 1])) / 4)
            assert lhs == pytest.approx(0.0, abs=1e-10 * max(1.0, A * np.abs(u).max()))

    def test_velocity_matches_recovery_formula(self):
        # v_{n+1} = 2 (u_{n+1} - u_n) / tau_n - v_n, recovered step by step
        A = 50.0
        grid = uniform_grid(64, 1.0)
        traj = solve_newmark_ode(OdeProblem(A=A, u0=1.0, v0=0.5), grid)
        v = traj.v[0]
        for n in range(grid.n_steps):
            v = 2.0 * (traj.u[n + 1] - traj.u[n]) / grid.steps[n] - v
            assert v == pytest.approx(traj.v[n + 1], abs=1e-9)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            OdeProblem(A=-1.0, u0=0.0, v0=0.0)
        with pytest.raises(ValueError):
            run_ode_experiment(ExperimentConfig(kind="ode", A=1.0, N=4, T=0.0))
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.0, 0.5, 0.5]))

    @pytest.mark.parametrize("T", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_rejects_a_final_time_that_is_not_finite(self, T):
        # the march takes its times from the grid, whose rules check T
        with pytest.raises(ValueError, match=f"^T must be a finite positive number, "
                                             f"got {T!r}$"):
            run_ode_experiment(ExperimentConfig(kind="ode", A=1.0, N=4, T=T))


class TestEnergyError:
    def test_zero_when_coincident(self):
        grid = uniform_grid(10, 1.0)
        problem = cosine_problem(4.0)
        traj = solve_newmark_ode(problem, grid)
        fake_exact = (lambda t: np.interp(t, grid.points, traj.u),
                      lambda t: np.interp(t, grid.points, traj.v))
        assert not ode_energy_error(traj, fake_exact, 4.0).any()

    def test_single_node_deviation(self):
        A = 9.0
        grid = uniform_grid(5, 1.0)
        traj = solve_newmark_ode(OdeProblem(A=A, u0=0.0, v0=0.0), grid)
        delta = 0.125
        u = traj.u.copy()
        u[3] += delta
        bumped = type(traj)(grid=grid, u=u, v=traj.v)
        exact = (lambda t: np.zeros_like(t), lambda t: np.zeros_like(t))
        err = ode_energy_error(bumped, exact, A)
        assert err.shape == (6,) and err[3] == pytest.approx(np.sqrt(A) * delta)
        assert not np.delete(err, 3).any()

    def test_reference_magnitude_uniform_100(self):
        problem = cosine_problem(100.0)
        traj = solve_newmark_ode(problem, uniform_grid(100, 1.0))
        e = ode_energy_error(traj, cosine_exact(100.0), 100.0).max()
        # coarse-row magnitude of the printed tables (see acceptance notes)
        assert e == pytest.approx(0.085, abs=0.003)


class TestEstimators:
    def test_cumulative_monotone_nondecreasing(self):
        problem = cosine_problem(100.0)
        grid = uniform_grid(50, 1.0)
        traj = solve_newmark_ode(problem, grid)
        c3 = eta3_ode_cumulative(traj, 100.0)
        c5 = eta5_ode_cumulative(traj, 100.0)
        assert (len(c3), len(c5)) == (50, 47)  # n = 1..50 and n = 4..50
        assert np.all(np.diff(c3) >= 0) and np.all(np.diff(c5) >= 0)
        assert c3[0] >= 0 and c5[0] >= 0

    def test_samples_against_direct_formula(self):
        # frozen against an independent loop evaluation of the sums
        A = 100.0
        problem = cosine_problem(A)
        grid = alternating_grid(n_steps=20, T=1.0, small=0.1)
        traj = solve_newmark_ode(problem, grid)
        tau = grid.steps
        u, v = traj.u, traj.v

        def d2(w, k):
            return (((w[k + 1] - w[k]) / tau[k]) - ((w[k] - w[k - 1]) / tau[k - 1])) \
                / ((tau[k] + tau[k - 1]) / 2)

        total = tau[0] * (5 * tau[0] ** 2 / 12 + tau[0] * tau[1] / 2) \
            * np.sqrt(A * d2(v, 1) ** 2 + (A * d2(u, 1)) ** 2)
        for k in range(1, grid.n_steps):
            wk = tau[k] * (tau[k] ** 2 / 12 + tau[k - 1] * tau[k] / 8)
            total += wk * np.sqrt(A * d2(v, k) ** 2 + (A * d2(u, k)) ** 2)
        assert eta3_ode_cumulative(traj, A)[-1] == pytest.approx(total, rel=1e-13)

    def test_reference_anchor_uniform_A100(self):
        problem = cosine_problem(100.0)
        grid = uniform_grid(100, 1.0)
        traj = solve_newmark_ode(problem, grid)
        assert eta3_ode_cumulative(traj, 100.0)[-1] == pytest.approx(0.21, abs=0.01)
        assert eta5_ode_cumulative(traj, 100.0)[-1] == pytest.approx(0.203, abs=0.003)

    def test_refinement_by_ten_reduces_by_hundred(self):
        problem = cosine_problem(100.0)
        vals3, vals5 = [], []
        for n in (100, 1000):
            traj = solve_newmark_ode(problem, uniform_grid(n, 1.0))
            vals3.append(eta3_ode_cumulative(traj, 100.0)[-1])
            vals5.append(eta5_ode_cumulative(traj, 100.0)[-1])
        assert vals3[0] / vals3[1] == pytest.approx(100.0, rel=0.1)
        assert vals5[0] / vals5[1] == pytest.approx(100.0, rel=0.1)

    def test_three_and_five_point_agree_when_resolved(self):
        problem = cosine_problem(100.0)
        n = 10000
        traj = solve_newmark_ode(problem, uniform_grid(n, 1.0))
        e3 = eta3_ode_cumulative(traj, 100.0)[-1]
        e5 = eta5_ode_cumulative(traj, 100.0)[-1]
        assert abs(e3 - e5) / e3 < 0.05

    def test_rejects_small_n(self):
        problem = cosine_problem(1.0)
        for n, ok3, ok5 in ((1, False, False), (3, True, False), (4, True, True)):
            traj = solve_newmark_ode(problem, uniform_grid(n, 1.0))
            for ok, estimate in ((ok3, lambda: eta3_ode_cumulative(traj, 1.0)),
                                 (ok5, lambda: eta5_ode_cumulative(traj, 1.0))):
                if ok:
                    assert np.all(estimate() > 0), n
                else:
                    with pytest.raises(ValueError, match="needs at least"):
                        estimate()

    def test_sample_layout(self):
        problem = cosine_problem(9.0)
        grid = uniform_grid(12, 1.0)
        traj = solve_newmark_ode(problem, grid)
        assert len(eta3_ode_samples(traj, 9.0)) == 12
        assert len(eta5_ode_samples(traj, 9.0)) == 9  # k = 3..11


class TestEffectivity:
    """``harness.effectivity(eta, e)``, which both row builders call, on the tables' pairs."""

    def test_ratio(self):
        assert effectivity(0.21, 0.085) == pytest.approx(2.47, abs=0.005)

    def test_identity(self):
        assert effectivity(0.4, 0.4) == 1.0

    def test_reference_pair(self):
        assert effectivity(0.087, 0.077) == pytest.approx(1.13, abs=0.005)

    def test_zero_error_gives_nan(self):
        # undefined, and flagged as such in the row rather than raised
        assert np.isnan(effectivity(1.0, 0.0))


class TestScalingInvariant:
    def test_error_and_estimators_scale_quadratically(self):
        # e, eta_T, eta_hat_T all drop by 100 +- 10% under 10x refinement
        problem = cosine_problem(1000.0)
        out = {}
        for n in (1000, 10000):
            traj = solve_newmark_ode(problem, uniform_grid(n, 1.0))
            out[n] = (
                ode_energy_error(traj, cosine_exact(1000.0), 1000.0).max(),
                eta3_ode_cumulative(traj, 1000.0)[-1],
                eta5_ode_cumulative(traj, 1000.0)[-1],
            )
        for a, b in zip(out[1000], out[10000]):
            assert a / b == pytest.approx(100.0, rel=0.1)
