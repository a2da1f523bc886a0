"""Grids, manufactured solution, experiment drivers, CSV and CLI."""

import re

import numpy as np
import pytest

from wavest import estimators, grids, harness
from wavest.fem import FemSpace
from wavest.grids import TimeGrid, alternating_grid, build_grid, decaying_grid, uniform_grid
from wavest.harness import (BENCH_COLUMNS, BENCH_STEPS, BENCH_TAU, ODE_COLUMNS,
                            TRACE_COLUMNS, WAVE_COLUMNS, ExperimentConfig, benchmark_estimators,
                            parse_config_file, parse_mesh_spec, rows_to_csv,
                            run_ode_experiment, run_wave_experiment,
                            wave_energy_error_at, wave_problem_from)
from wavest.manufactured import gaussian_pulse, get_solution, standing_mode
from wavest.mesh import Mesh, generate_structured
from wavest.newmark import NewmarkWaveSolver
from wavest.ode import OdeProblem, eta3_ode_samples, solve_newmark_ode

from oracles import (derivatives, element_gradients, jittered_crisscross, one_shot_energy_error,
                     quad_points)

RNG = np.random.default_rng(5)


def einsum_energy_error(space, state, solution):
    """Oracle: the true-error quadrature as one einsum per norm, from the (t, x, y) callables."""
    t = state.t
    x, y = quad_points(space)
    v_h = np.einsum("tb,qb->tq", space.full(state.v)[space.mesh.triangles], space.rule.points)
    dv = v_h - solution.dudt(t, x, y)
    l2_sq = np.einsum("tq,q,t->", dv * dv, space.rule.weights, space.area)
    grads = element_gradients(space, space.full(state.u))
    gx, gy = solution.grad_u(t, x, y)
    dx = grads[:, 0][:, None] - gx
    dy = grads[:, 1][:, None] - gy
    h1_sq = np.einsum("tq,q,t->", dx * dx + dy * dy, space.rule.weights, space.area)
    return float(np.sqrt(l2_sq + h1_sq))


def assert_row_is_trace_end(row, trace):
    """A result row's totals are its trace's last entries, bit for bit."""
    for col, key in (("eta_T", "eta_T_cum"), ("eta_T_hat", "eta_T_hat_cum"), ("e", "err_max")):
        assert row[col] == trace[key][-1], col


def cosine(A):
    """The tables' scalar problem u'' + A u = 0, u = cos(sqrt(A) t)."""
    return OdeProblem(A=A, u0=1.0, v0=0.0)


class TestGrids:
    def test_uniform(self):
        g = uniform_grid(100, 1.0)
        np.testing.assert_allclose(g.steps, 0.01, rtol=1e-13)
        assert g.points[-1] == 1.0
        assert g.max_step_ratio == pytest.approx(1.0)

    def test_alternating_from_n(self):
        g = alternating_grid(n_steps=180, T=1.0, small=0.1)
        taustar = 2.0 / (180 * 1.1)
        np.testing.assert_allclose(g.steps[0::2], 0.1 * taustar, rtol=1e-12)
        np.testing.assert_allclose(g.steps[1::2], taustar, rtol=1e-12)
        assert g.points[-1] == 1.0
        assert g.max_step_ratio == pytest.approx(10.0, rel=1e-9)

    def test_decaying_capped(self):
        g = decaying_grid(0.01, 1.0)
        assert g.points[1] == pytest.approx(0.01)
        assert g.steps[1] == pytest.approx(0.1)  # capped multiplier of 10
        assert g.points[-1] == 1.0
        # interior steps follow tau0 / sqrt(t)
        k = len(g.steps) // 2
        assert g.steps[k] == pytest.approx(0.01 / np.sqrt(g.points[k]), rel=1e-12)

    def test_dispatcher(self):
        assert build_grid("uniform", 1.0, N=10).n_steps == 10
        assert build_grid("alt10", 1.0, N=20).max_step_ratio == pytest.approx(10, rel=1e-9)
        assert build_grid("alt100", 1.0, N=20).max_step_ratio == pytest.approx(100, rel=1e-9)
        assert build_grid("decay", 1.0, tau0=0.02).points[1] == pytest.approx(0.02)
        with pytest.raises(ValueError):
            build_grid("nope", 1.0)

    @pytest.mark.parametrize("make, message", [
        (lambda: decaying_grid(0.029687284364218212, 1.0), r"final step 8e-07 .* is 2\.66e-05 "),
    ])
    def test_warns_on_a_sliver_final_step(self, make, message):
        # the grid stays as the rule builds it; only the warning is added
        with pytest.warns(UserWarning, match=message + r"of the step before it"):
            g = make()
        assert g.points[-1] == 1.0 and g.steps[-1] < 1e-3 * g.steps[-2]

    def test_no_warning_on_the_table_and_sweep_grids(self):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for rule, N in (("alt10", 18180), ("alt100", 19800), ("alt100", 200)):
                build_grid(rule, 1.0, N=N)
            for n in (14, 28, 56):
                build_grid("decay", 1.0, tau0=0.12 * np.sqrt(1.0 / n))

    @pytest.mark.parametrize("rule, settings, unused", [
        ("uniform", {"N": 10, "tau0": 0.1}, "tau0"),
        ("uniform", {"tau0": 0.1}, "tau0"),   # reported as unused, not as N missing
        ("alt10", {"N": 10, "tau0": 0.1}, "tau0"),
        ("alt100", {"N": 10, "tau0": 0.1}, "tau0"),
        ("decay", {"tau0": 0.1, "N": 10}, "N"),
        ("decay", {"N": 10}, "N"),
    ], ids=[   # explicit: removing a case renames no other
            "uniform-settings0-tau0", "uniform-settings1-tau0", "alt10-settings2-tau0",
            "alt100-settings3-tau0", "decay-settings4-N", "decay-settings5-N"])
    def test_rejects_settings_the_rule_does_not_use(self, rule, settings, unused):
        with pytest.raises(ValueError, match=f"^the {rule} grid does not use {unused}$"):
            build_grid(rule, 1.0, **settings)

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("rule, settings, bad", [
        ("uniform", {"N": 10}, "T"),
        ("alt10", {"N": 4}, "T"),
        ("decay", {"tau0": 0.1}, "T"),   # T = inf: the decaying rule's loop would never end
        ("decay", {"tau0": None}, "tau0"),
    ], ids=["uniform-T", "alt10-T", "decay-T", "decay-tau0"])
    def test_rejects_a_setting_that_is_not_finite(self, rule, settings, bad, value):
        settings = {k: value if k == bad else v for k, v in settings.items()}
        T = value if bad == "T" else 1.0
        with pytest.raises(ValueError, match=f"^{bad} must be a finite positive number, got"):
            build_grid(rule, T, **settings)

    @pytest.mark.parametrize("make, steps", [
        (lambda: uniform_grid(10 ** 10, 1.0), r"1e\+10"),
        (lambda: alternating_grid(T=1.0, small=0.1, n_steps=2 * 10 ** 7), r"2e\+07"),
        (lambda: decaying_grid(1e-9, 1.0), r"1e\+09"),
    ], ids=["uniform", "alt-N", "decay"])
    def test_rejects_a_grid_above_max_steps(self, make, steps):
        # the rule bounds its step count before building anything, so a call
        # that would build for minutes fails at once
        with pytest.raises(ValueError, match=rf"grid takes up to {steps} steps, "
                                             r"more than MAX_STEPS = 1000000$"):
            make()

    @pytest.mark.parametrize("make", [
        lambda: uniform_grid(100, 1.0),
        lambda: alternating_grid(T=1.0, small=0.1, n_steps=180),
        lambda: decaying_grid(0.01, 1.0),
        lambda: decaying_grid(0.01, 4.0),   # multipliers below 1 after t = 1
    ], ids=["uniform", "alt-N", "decay", "decay-T4"])
    def test_step_bound_covers_the_grid(self, make, monkeypatch):
        # each rule's bound is at least the steps it builds: with MAX_STEPS
        # one below that count, the rule refuses
        steps = make().n_steps
        monkeypatch.setattr(grids, "MAX_STEPS", steps - 1)
        with pytest.raises(ValueError, match="more than MAX_STEPS"):
            make()

    @pytest.mark.parametrize("points", [[0.0, np.nan, 1.0], [0.0, 1.0, np.inf]],
                             ids=["points0", "points1"])
    def test_time_grid_rejects_points_that_are_not_finite(self, points):
        with pytest.raises(ValueError, match="^time points must be finite$"):
            TimeGrid(points)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            uniform_grid(0, 1.0)
        with pytest.raises(ValueError):
            alternating_grid(n_steps=7, T=1.0, small=0.1)
        with pytest.raises(ValueError):
            decaying_grid(2.0, 1.0)


class TestManufactured:
    def test_center_values(self):
        sol = gaussian_pulse()
        assert sol.u(0.0, 0.3, 0.3) == pytest.approx(1.0)
        assert sol.u(1.0, 0.7, 0.7) == pytest.approx(1.0)

    def test_initial_velocity_vanishes(self):
        sol = gaussian_pulse()
        x = RNG.uniform(0, 1, size=8)
        y = RNG.uniform(0, 1, size=8)
        np.testing.assert_allclose(sol.dudt(0.0, x, y), 0.0, atol=1e-15)

    def test_forcing_against_finite_difference_oracle(self):
        # f = u_tt - Lap u via 4th-order central differences of u
        sol = gaussian_pulse()
        pts = RNG.uniform(0.15, 0.85, size=(20, 3))  # (x, y, t)
        h = 1e-3

        def d2(fun, center, step):
            m2, m1, p1, p2 = (fun(center + k * step) for k in (-2.0, -1.0, 1.0, 2.0))
            return (-m2 + 16 * m1 - 30 * fun(center) + 16 * p1 - p2) / (12 * step ** 2)

        for x, y, t in pts:
            utt = d2(lambda s: sol.u(s, x, y), t, h)
            uxx = d2(lambda s: sol.u(t, s, y), x, h)
            uyy = d2(lambda s: sol.u(t, x, s), y, h)
            assert sol.f(t, x, y) == pytest.approx(utt - uxx - uyy, abs=1e-6)

    def test_boundary_trace_bound(self):
        # the pulse is not zero on the boundary: its trace peaks at
        # exp(-100 * 0.3^2) = 1.23e-4 at t = 0 and t = 1, where the center is
        # 0.3 from two sides, and falls to exp(-16) = 1.1e-7 at t = 0.5
        sol = gaussian_pulse()
        s = np.linspace(0.0, 1.0, 1001)
        zero, one = np.zeros_like(s), np.ones_like(s)
        bx = np.concatenate([s, s, zero, one])
        by = np.concatenate([zero, one, s, s])
        peak = [np.abs(sol.u(t, bx, by)).max() for t in np.linspace(0.0, 1.0, 201)]
        assert max(peak) == pytest.approx(np.exp(-9.0), rel=1e-12)
        assert peak[0] == pytest.approx(np.exp(-9.0), rel=1e-12)
        assert peak[-1] == pytest.approx(np.exp(-9.0), rel=1e-12)
        assert peak[100] == pytest.approx(np.exp(-16.0), rel=1e-12)

    def test_gradients_against_finite_differences(self):
        sol = gaussian_pulse()
        x, y, t = 0.41, 0.52, 0.6
        h = 1e-6
        gx = (sol.u(t, x + h, y) - sol.u(t, x - h, y)) / (2 * h)
        gy = (sol.u(t, x, y + h) - sol.u(t, x, y - h)) / (2 * h)
        got = sol.grad_u(t, x, y)
        assert got[0] == pytest.approx(gx, rel=1e-8)
        assert got[1] == pytest.approx(gy, rel=1e-8)
        dt = (sol.u(t + h, x, y) - sol.u(t - h, x, y)) / (2 * h)
        assert sol.dudt(t, x, y) == pytest.approx(dt, rel=1e-8)

    @pytest.mark.parametrize("make", [gaussian_pulse, standing_mode])
    def test_derivatives_bit_equal_to_callables(self, make):
        # the pulse's derivatives evaluate the exponential once for both
        # parts, the mode's oracle is written apart; the values must still be
        # those of dudt and grad_u, bit for bit
        sol = make()
        space = FemSpace(jittered_crisscross(6))
        x, y = quad_points(space)
        for t in (0.0, 0.37, 1.0):
            dudt, (gx, gy) = derivatives(sol)(t, x, y)
            ex, ey = sol.grad_u(t, x, y)
            assert np.array_equal(dudt, sol.dudt(t, x, y)), t
            assert np.array_equal(gx, ex) and np.array_equal(gy, ey), t

    def test_pulse_bit_equal_to_the_former_expressions(self):
        # f and the derivatives compute in four arrays; the former
        # expressions, kept here as the oracle, allocate their temporaries
        s = 100.0

        def parts(t, x, y):
            c = 0.3 + 0.4 * t * t
            X = x - c
            Y = y - c
            return X, Y, np.exp(-s * (X * X + Y * Y))

        def former_f(t, x, y):
            X, Y, g = parts(t, x, y)
            cdot = 0.8 * t
            cddot = 0.8
            utt = (2.0 * s * cddot * (X + Y) - 4.0 * s * cdot ** 2
                   + 4.0 * s * s * cdot ** 2 * (X + Y) ** 2) * g
            lap = (-4.0 * s + 4.0 * s * s * (X * X + Y * Y)) * g
            return utt - lap

        def former_at(t, x, y):
            X, Y, g = parts(t, x, y)
            return 2.0 * s * 0.8 * t * (X + Y) * g, (-2.0 * s * X * g, -2.0 * s * Y * g)

        def bits(a):
            return np.asarray(a, dtype=float).tobytes()

        sol = gaussian_pulse()
        space = FemSpace(jittered_crisscross(6))
        x, y = quad_points(space)
        for t in [k / 16 for k in range(17)] + [0.123456789]:
            assert bits(sol.f(t, x, y)) == bits(former_f(t, x, y)), t
            got, want = sol.derivatives(t, x, y), former_at(t, x, y)
            for a, b in ((got[0], want[0]), (got[1][0], want[1][0]), (got[1][1], want[1][1])):
                assert bits(a) == bits(b), t
            for px, py in ((0.31, 0.77), (0.3, 0.3), (x[5, 2], y[5, 2])):
                value = sol.f(t, px, py)
                assert np.ndim(value) == 0 and bits(value) == bits(former_f(t, px, py)), t
                got, want = sol.derivatives(t, px, py), former_at(t, px, py)
                assert bits([got[0], *got[1]]) == bits([want[0], *want[1]]), t

    @pytest.mark.parametrize("make, name", [
        *((gaussian_pulse, name) for name in ("u", "dudt", "grad_u", "grad_dudt", "f",
                                              "derivatives")),
        # the mode has no derivatives: its true error takes moments
        *((standing_mode, name) for name in ("u", "dudt", "grad_u", "grad_dudt", "f"))])
    def test_out_bit_equal_to_the_allocating_call(self, make, name):
        # with out, the pulse computes in the caller's four arrays and the
        # mode ignores them; either way the values are the allocating call's,
        # on a full block, on crisscross n=56's short last block and at scalar points
        fn = getattr(make(), name)
        space = FemSpace(generate_structured(56, "crisscross"))
        assert [b.stop - b.start for b in space.blocks] == [4096, 4096, 4096, 256]

        def flat(values):   # a value, a pair of them, or derivatives' (value, pair)
            if isinstance(values, tuple):
                return [a for v in values for a in flat(v)]
            return [values]

        for block in (space.blocks[0], space.blocks[-1]):
            x, y = space.block_points(block)
            for t in (0.0, 0.37, 1.0):
                out = space.block_work(block)
                got, want = flat(fn(t, x, y, out=out)), flat(fn(t, x, y))
                assert [a.tobytes() for a in got] == [a.tobytes() for a in want], t
                # the pulse's values are views of out: the call allocated no block array
                in_out = [any(np.shares_memory(a, w) for w in out) for a in got]
                assert in_out == [make is gaussian_pulse] * len(got), t
        for t in (0.0, 0.37):
            out = [np.empty(()) for _ in range(4)]
            got, want = flat(fn(t, 0.31, 0.77, out=out)), flat(fn(t, 0.31, 0.77))
            assert all(np.ndim(a) == 0 for a in got)
            assert [np.float64(a).tobytes() for a in got] == [np.float64(a).tobytes()
                                                            for a in want], t

    def test_solution_names_are_exact(self):
        assert get_solution("gaussian").name == "gaussian"
        assert get_solution("mode").name == "mode(1,1)"
        for name in ("mode(2,3)", "modex", "gauss", ""):
            message = f"unknown manufactured solution '{name}'"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                get_solution(name)


class TestOdeExperiments:
    def test_sample_row(self):
        cfg = ExperimentConfig(kind="ode", A=100.0, N=1000, grid="uniform")
        row, trace = run_ode_experiment(cfg)
        assert row["ei_T"] == pytest.approx(2.5, abs=0.1)
        assert row["ei_T_hat"] == pytest.approx(2.49, abs=0.01)
        assert set(trace) == set(TRACE_COLUMNS)
        assert all(len(trace[c]) == 1001 for c in TRACE_COLUMNS)
        assert_row_is_trace_end(row, trace)

    def test_trace_monotone(self):
        cfg = ExperimentConfig(kind="ode", A=100.0, N=180, grid="alt10")
        _, trace = run_ode_experiment(cfg)
        for key in ("eta_T_cum", "eta_T_hat_cum", "err_max"):
            assert np.all(np.diff(trace[key]) >= -1e-15)

    def test_trace_starts_with_the_initial_slab(self):
        # the trace's eta_T_cum at n is sum_{k<n} tau_k eta_T(t_k): the n = 1
        # entry is the initial slab, and the 5-point sum starts at n = 4
        cfg = ExperimentConfig(kind="ode", A=100.0, N=180, grid="alt10")
        _, trace = run_ode_experiment(cfg)
        grid = cfg.build_grid()
        traj = solve_newmark_ode(cosine(100.0), grid)
        assert trace["eta_T_cum"][0] == 0.0
        assert trace["eta_T_cum"][1] == eta3_ode_samples(traj, 100.0)[0] > 0
        assert not trace["eta_T_hat_cum"][:4].any() and trace["eta_T_hat_cum"][4] > 0

    def test_run_ode_table(self):
        rows = [run_ode_experiment(ExperimentConfig(kind="ode", A=100.0, N=n, grid="uniform"))[0]
                for n in (100, 1000)]
        assert rows[0]["eta_T"] / rows[1]["eta_T"] == pytest.approx(100, rel=0.1)


def fresh_array_energy_error(space, state, exact):
    """Oracle: the true-error quadrature with fresh (triangles, points) arrays for every state."""
    dudt, (gx, gy) = exact(state.t)
    rule, area = space.rule, space.area
    r = space.full(state.v)[space.mesh.triangles] @ rule.points.T
    np.square(np.subtract(r, dudt, out=r), out=r)
    err_sq = (r @ rule.weights) @ area
    grads = element_gradients(space, space.full(state.u))
    for d, g in enumerate((gx, gy)):
        np.square(np.subtract(grads[:, d, None], g, out=r), out=r)
        err_sq += (r @ rule.weights) @ area
    return float(np.sqrt(err_sq))


class TestWaveExperiment:
    def test_trace(self):
        # rows end the trace; the n = 1 entry carries the initial slab, as
        # the scalar trace's does, and the 5-point sum starts at n = 4
        cfg = ExperimentConfig(kind="wave", mesh="structured:n=6:pattern=crisscross",
                               grid="alt10", N=12)
        row, trace, acc = run_wave_experiment(cfg)
        assert all(len(trace[c]) == cfg.N + 1 for c in TRACE_COLUMNS)
        assert_row_is_trace_end(row, trace)
        inc3, inc5 = acc.increments()
        np.testing.assert_array_equal(trace["eta_T_cum"], np.cumsum(np.r_[0.0, inc3]))
        np.testing.assert_array_equal(trace["eta_T_hat_cum"], np.cumsum(np.r_[[0.0] * 4, inc5]))
        assert trace["eta_T_cum"][0] == 0.0 and trace["eta_T_cum"][1] == inc3[0] > 0
        assert np.all(np.diff(trace["err_max"]) >= 0) and trace["err_max"][0] > 0

    def test_zero_data_flags_undefined_effectivity(self):
        cfg = ExperimentConfig(kind="wave", solution="zero",
                               mesh="structured:n=4:pattern=diagonal",
                               grid="uniform", N=5)
        from wavest import harness
        from wavest.newmark import WaveProblem

        def fake_get(name):
            from wavest.manufactured import ManufacturedSolution
            zero2 = lambda t, x, y, out=None: np.zeros_like(np.asarray(x, float))
            gz = lambda t, x, y, out=None: (np.zeros_like(np.asarray(x, float)),) * 2
            zero_derivatives = lambda t, x, y, out=None: (0.0 * x, (0.0 * x, 0.0 * y))
            return ManufacturedSolution(name="zero", u=zero2, dudt=zero2,
                                        grad_u=gz, grad_dudt=gz, f=zero2,
                                        derivatives=zero_derivatives)

        orig = harness.get_solution
        harness.get_solution = fake_get
        try:
            row, _, _ = run_wave_experiment(cfg)
        finally:
            harness.get_solution = orig
        assert row["e"] == 0.0
        assert row["eta_T"] == 0.0 and row["eta_T_hat"] == 0.0 and row["eta_S"] == 0.0
        assert np.isnan(row["ei"]) and np.isnan(row["ei_hat"])

    def test_estimators_not_set_by_the_solver_tolerance(self):
        # standing mode, n=8 diagonal, step ratio 100: the time estimators
        # divide u and v by up to tau^2, so solver error divided by tau would
        # show; at the default tol they match a tol = 1e-13 run within 1 %
        rows = {}
        for tol in (ExperimentConfig.tol, 1e-13):
            cfg = ExperimentConfig(kind="wave", mesh="structured:n=8:pattern=diagonal",
                                   solution="mode", grid="alt100", N=400, T=1.0, tol=tol)
            rows[tol] = run_wave_experiment(cfg)[0]
        default, tight = rows[ExperimentConfig.tol], rows[1e-13]
        for col in ("eta_T", "eta_T_hat", "eta_S"):
            assert default[col] == pytest.approx(tight[col], rel=0.01), col

    def test_zero_forcing_is_never_assembled(self, monkeypatch):
        # the standing mode marks its forcing as identically zero: no load is
        # assembled, and the estimators match a run that projects the zero
        # callable at every step bit for bit
        import dataclasses

        from wavest import harness

        cfg = ExperimentConfig(kind="wave", solution="mode",
                               mesh="structured:n=6:pattern=crisscross",
                               grid="alt10", N=12)
        loads = []
        assemble_load = FemSpace.assemble_load
        monkeypatch.setattr(FemSpace, "assemble_load",
                            lambda *a, **k: loads.append(1) or assemble_load(*a, **k))
        skipped, _, skipped_acc = run_wave_experiment(cfg)
        assert loads == []

        get_solution = harness.get_solution
        monkeypatch.setattr(harness, "get_solution", lambda name: dataclasses.replace(
            get_solution(name), zero_forcing=False))
        projected, _, projected_acc = run_wave_experiment(cfg)
        assert len(loads) == cfg.N + 1
        for key in ("eta_T", "eta_T_hat"):
            assert skipped[key] == projected[key], key
        assert skipped_acc.space_acc.parts == projected_acc.space_acc.parts
        assert skipped["eta_T"] > 0 and skipped_acc.space_acc.part1_max > 0

    def test_standing_mode_evaluates_no_callable_after_the_initial_data(self, monkeypatch):
        # the true error reads the solution bound once to the quadrature
        # points; dudt and grad_u serve only the initial projection
        import dataclasses

        from wavest import harness

        calls = []
        get_solution = harness.get_solution

        def recording(name):
            sol = get_solution(name)

            def rec(key, fn):
                return lambda t, x, y, out=None: calls.append((key, t)) or fn(t, x, y, out=out)
            return dataclasses.replace(sol, dudt=rec("dudt", sol.dudt),
                                       grad_u=rec("grad_u", sol.grad_u))

        monkeypatch.setattr(harness, "get_solution", recording)
        cfg = ExperimentConfig(kind="wave", solution="mode",
                               mesh="structured:n=6:pattern=crisscross",
                               grid="alt10", N=12)
        row, trace, _ = run_wave_experiment(cfg)
        assert calls == [("grad_u", 0.0)]
        assert len(trace["err_max"]) == cfg.N + 1 and row["e"] > 0

    @pytest.mark.parametrize("make", [gaussian_pulse, standing_mode])
    def test_true_error_against_einsum_oracle(self, make):
        sol = make()
        space = FemSpace(jittered_crisscross(6))
        solver = NewmarkWaveSolver(wave_problem_from(sol), space)
        state = solver.initial_state()
        for tau in (0.05, 0.2, 0.03):
            state = solver.step(state, tau)
            oracle = einsum_energy_error(space, state, sol)
            assert oracle > 0
            err = wave_energy_error_at(space, state, derivatives(sol))
            assert err == pytest.approx(oracle, rel=1e-14)

    @pytest.mark.parametrize("make", [gaussian_pulse, standing_mode])
    def test_blocked_quadrature_bit_equal_to_one_shot(self, make, blocked_mesh):
        sol = make()
        space = FemSpace(blocked_mesh)
        solver = NewmarkWaveSolver(wave_problem_from(sol), space)
        exact = derivatives(sol)
        state = solver.initial_state()
        for tau in (0.05, 0.2, 0.03):
            state = solver.step(state, tau)
            oracle = one_shot_energy_error(space, state, exact)
            assert oracle > 0
            assert wave_energy_error_at(space, state, exact) == oracle, state.t

    @pytest.mark.parametrize("mesh", [lambda: jittered_crisscross(6),
                                      lambda: generate_structured(56, "crisscross")],
                             ids=["jittered6", "crisscross56"])
    @pytest.mark.parametrize("rule", ["alt100", "uniform"])
    def test_moment_form_against_the_quadrature(self, mesh, rule):
        # every state of a 200-step run, t = 0 included; near t = 0.35 the
        # error is about 3e-4 of the solution's energy norm, where a form
        # expanded about 0 rather than I s loses digits
        sol = standing_mode()
        space = FemSpace(mesh())
        solver = NewmarkWaveSolver(wave_problem_from(sol), space)
        error_at = sol.moments(space)
        exact = derivatives(sol)
        for state in solver.run(build_grid(rule, 1.0, N=200)):
            oracle = wave_energy_error_at(space, state, exact)
            assert error_at(state) == pytest.approx(oracle, rel=1e-12), state.t

    @pytest.mark.parametrize("name, quadratures", [("gaussian", 7), ("mode", 0)])
    def test_true_error_form_follows_the_solution(self, name, quadratures, monkeypatch):
        # the standing mode's error comes from its moments, the pulse's from
        # the quadrature at every state
        from wavest import harness

        calls = []
        quadrature = harness.wave_energy_error_at
        monkeypatch.setattr(harness, "wave_energy_error_at",
                            lambda *a: calls.append(1) or quadrature(*a))
        cfg = ExperimentConfig(kind="wave", solution=name,
                               mesh="structured:n=6:pattern=crisscross", grid="uniform", N=6)
        row, _, _ = run_wave_experiment(cfg)
        assert len(calls) == quadratures and row["e"] > 0

    @pytest.mark.parametrize("make", [gaussian_pulse, standing_mode])
    def test_run_buffers_bit_equal_to_fresh_arrays(self, make):
        # the space's point buffers and one solution serve states at t1, t2
        # and t1 again: each value is the oracle's, so nothing leaks between states
        sol = make()
        space = FemSpace(jittered_crisscross(6))
        solver = NewmarkWaveSolver(wave_problem_from(sol), space)
        x, y = quad_points(space)
        fresh = lambda t: (sol.dudt(t, x, y), sol.grad_u(t, x, y))
        s1 = solver.step(solver.initial_state(), 0.05)
        s2 = solver.step(s1, 0.2)
        exact = derivatives(sol)
        for state in (s1, s2, s1):
            oracle = fresh_array_energy_error(space, state, fresh)
            assert oracle > 0
            assert wave_energy_error_at(space, state, exact) == oracle, state.t

    def test_rejects_a_solution_off_zero_on_the_boundary(self):
        # the pulse's center reaches the boundary at t = 1.32; by t = 1.05 the
        # trace has passed the bound on a mesh vertex
        cfg = ExperimentConfig(kind="wave", solution="gaussian",
                               mesh="structured:n=14:pattern=diagonal",
                               grid="uniform", N=21, T=1.05)
        with pytest.raises(ValueError, match=r"'gaussian' reaches \|u\| = 0\.00114 on the "
                                             r"boundary at t = 1\.05, above the bound 0\.001 "):
            run_wave_experiment(cfg)

    @pytest.mark.parametrize("T", [np.nan, np.inf, 0.0], ids=["nan", "inf", "zero"])
    def test_rejects_a_final_time_that_is_not_finite_and_positive(self, T, monkeypatch):
        # the run takes its times from the grid, whose rules check T before
        # any mesh or space is built
        def never(*_args, **_kwargs):
            raise AssertionError("built for a final time the grid rejects")

        for name in ("parse_mesh_spec", "FemSpace"):
            monkeypatch.setattr(harness, name, never)
        with pytest.raises(ValueError, match=f"^T must be a finite positive number, "
                                             f"got {T!r}$"):
            run_wave_experiment(ExperimentConfig(kind="wave", mesh="structured:n=4", N=8, T=T))

    def test_quadrature_refinement_sanity_for_true_error(self):
        # degree-5 rule vs element-subdivided evaluation differ well below 0.1%
        sol = gaussian_pulse()
        mesh = generate_structured(28)
        space = FemSpace(mesh, tol=1e-10)
        solver = NewmarkWaveSolver(wave_problem_from(sol), space)
        state = solver.initial_state()
        for _ in range(3):
            state = solver.step(state, 0.01)
        err = wave_energy_error_at(space, state, sol.derivatives)
        # oracle: same evaluation on the uniformly refined mesh carrying the
        # prolongated P1 field (each triangle split in 4, same function)
        fine_mesh, prolong = refine_mesh_with_prolongation(mesh)
        fine_space = FemSpace(fine_mesh)
        from wavest.newmark import WaveState
        fu = prolong @ space.full(state.u)
        fv = prolong @ space.full(state.v)
        fine_state = WaveState(t=state.t, u=fu[fine_space.free], v=fv[fine_space.free],
                               f_h=np.zeros(fine_mesh.n_vertices),
                               a=np.zeros(len(fine_space.free)))
        oracle = wave_energy_error_at(fine_space, fine_state, sol.derivatives)
        assert abs(err - oracle) / oracle < 1e-3


def refine_mesh_with_prolongation(mesh):
    """Uniform red refinement plus the P1 prolongation matrix (dense)."""
    import scipy.sparse as sp
    verts = list(map(tuple, mesh.vertices))
    index = {v: i for i, v in enumerate(verts)}
    rows, cols, vals = list(range(len(verts))), list(range(len(verts))), [1.0] * len(verts)
    boundary = list(mesh.boundary_vertex)
    interior_edges = set(map(tuple, mesh.edge_vertices[mesh.edge_sides[:, 1] >= 0].tolist()))

    def midpoint(a, b):
        p = tuple((mesh.vertices[a] + mesh.vertices[b]) / 2.0)
        if p not in index:
            index[p] = len(verts)
            verts.append(p)
            rows.extend([index[p], index[p]])
            cols.extend([a, b])
            vals.extend([0.5, 0.5])
            # only a boundary edge's midpoint is on the boundary; an interior
            # edge may join two boundary vertices
            boundary.append((min(a, b), max(a, b)) not in interior_edges)
        return index[p]

    tris = []
    for a, b, c in mesh.triangles:
        ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        tris.extend([(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)])
    fine = Mesh(vertices=np.asarray(verts, float), triangles=np.asarray(tris),
                boundary_vertex=np.asarray(boundary, bool))
    prolong = sp.coo_matrix((vals, (rows, cols)),
                            shape=(len(verts), mesh.n_vertices)).tocsr()
    return fine, prolong


class TestMemoryGuard:
    """What a wave run keeps resident and allocates, per mesh vertex."""

    # tracemalloc's peak over the run below, in bytes per vertex: about 12 %
    # above the 1,269 B this layout takes (the layout before it, with a
    # full-vertex stiffness, six-slot jump rows, whole-mesh error buffers
    # and full older window nodes, took 1,784 B)
    PEAK_BYTES_PER_VERTEX = 1416
    # tracemalloc's current size after the run's last push, in bytes per
    # vertex: 14 % above the 993 B of a space that derives its quadrature
    # points per block and a true error that keeps no buffers between states
    # (a space storing every triangle's points held 1,156 B); the space's
    # four block work arrays raise it to 1,105 B
    LIVE_BYTES_PER_VERTEX = 1130
    # tracemalloc's peaks of one pulse L2 projection of the forcing and one
    # pulse true error at crisscross n=64 (4 blocks), in bytes: about 12 %
    # above the 534,410 B and 761,344 B they take with the space's block work
    # arrays, so that four new (4096, 7) arrays for one block (917,504 B)
    # exceed each
    LOAD_CALL_PEAK_BYTES = 600_000
    WORK_ERROR_CALL_PEAK_BYTES = 850_000
    # tracemalloc's peak of one FemSpace construction at crisscross n=64, in
    # bytes per vertex: about 12 % above the 548 B of the edge-slot assembly,
    # M_h included (incidence products, COO triplets and slicing to the free
    # vertices took 787 B without M_h)
    SPACE_PEAK_BYTES_PER_VERTEX = 615

    def test_peak_and_resident_layout(self, monkeypatch):
        import tracemalloc

        live = []

        class Accumulator(harness.WaveEstimatorAccumulator):
            def push(self, state):
                super().push(state)
                live.append(tracemalloc.get_traced_memory()[0])

        monkeypatch.setattr(harness, "WaveEstimatorAccumulator", Accumulator)
        cfg = ExperimentConfig(kind="wave", mesh="structured:n=8:pattern=crisscross",
                               solution="gaussian", grid="uniform", N=4)
        run_wave_experiment(cfg)   # first calls (lazy imports, caches) stay out of the count
        cfg.mesh = "structured:n=64:pattern=crisscross"
        live.clear()
        tracemalloc.start()
        try:
            _, _, acc = run_wave_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        space = acc.space
        assert peak / space.mesh.n_vertices < self.PEAK_BYTES_PER_VERTEX
        # the stepping phase's live set, and no per-(triangle, point) array on the space
        assert len(live) == cfg.N + 1
        assert live[-1] / space.mesh.n_vertices < self.LIVE_BYTES_PER_VERTEX
        per_point = space.mesh.n_triangles * len(space.rule.points)
        big = [name for name, value in vars(space).items()
               if isinstance(value, np.ndarray) and value.size >= per_point]
        assert big == []

        # no full-vertex stiffness; one free-vertex pattern for M, K and the step matrix
        assert not hasattr(space, "stiffness")
        for matrix in (space.stiffness_ff, space._shifted):
            assert matrix.indices is space.mass_ff.indices
            assert matrix.indptr is space.mass_ff.indptr

        # J: 4 entries per row, in buffers of exactly that size
        jump = acc.space_acc.jump
        rows = jump.shape[0]
        assert jump.nnz == 4 * rows
        for values in (jump.data, jump.indices):
            owner = values if values.base is None else values.base
            assert owner.nbytes == 4 * rows * values.itemsize

    def test_block_evaluations_allocate_no_block_arrays(self):
        # the forcing's load and the true error evaluate the pulse into the
        # space's block work arrays, allocated at the first call; beyond them a
        # true error holds one block's buffers at a time, the all-vertex vectors
        # and the (3, triangles) integral rows
        import tracemalloc

        sol = gaussian_pulse()
        space = FemSpace(generate_structured(64, "crisscross"))
        assert len(space.blocks) == 4
        solver = NewmarkWaveSolver(wave_problem_from(sol), space)
        state = solver.step(solver.initial_state(), 0.05)   # first calls stay out of the count
        error_at = harness.true_error_form(sol, space)
        first = error_at(state)
        peaks = []
        for call in (lambda: solver.project_forcing(0.3), lambda: error_at(state)):
            tracemalloc.start()
            try:
                result = call()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert result == first
        assert peaks[0] < self.LOAD_CALL_PEAK_BYTES
        assert peaks[1] < self.WORK_ERROR_CALL_PEAK_BYTES

    def test_space_construction_peak(self):
        # the edge slots live only while the space assembles its matrices
        import tracemalloc

        mesh = generate_structured(64, "crisscross")
        FemSpace(mesh)   # first calls (lazy imports) stay out of the count
        tracemalloc.start()
        try:
            space = FemSpace(mesh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / mesh.n_vertices < self.SPACE_PEAK_BYTES_PER_VERTEX
        assert space.h_mass.indices is space.mass.indices

    def test_boundary_trace_checked_in_chunks(self):
        # a long grid's times are checked a chunk at a time: one (times,
        # boundary vertices) array of 20,001 x 64 would take 10 MB alone
        import tracemalloc

        mesh = generate_structured(16)
        tracemalloc.start()
        try:
            harness._check_boundary_trace(gaussian_pulse(), mesh, np.linspace(0.0, 1.0, 20_001))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestCsv:
    def test_deterministic_emission(self):
        cfg = ExperimentConfig(kind="ode", A=100.0, N=100, grid="uniform")
        row1, _ = run_ode_experiment(cfg)
        row2, _ = run_ode_experiment(cfg)
        assert rows_to_csv(ODE_COLUMNS, [row1]) == rows_to_csv(ODE_COLUMNS, [row2])

    def test_schema_round_trip(self):
        cfg = ExperimentConfig(kind="ode", A=100.0, N=100, grid="uniform")
        row, _ = run_ode_experiment(cfg)
        text = rows_to_csv(ODE_COLUMNS, [row])
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(ODE_COLUMNS)
        parsed = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(parsed["eta_T"]) == pytest.approx(row["eta_T"], rel=1e-5)
        assert int(parsed["N"]) == 100

    def test_trace_columns(self):
        assert TRACE_COLUMNS == ("n", "t", "eta_T_cum", "eta_T_hat_cum", "err_max")
        assert "eta_S" in WAVE_COLUMNS


class TestConfigParsing:
    def test_key_value_file(self):
        text = "kind = ode\nA = 1000\nN = 180\ngrid = alt10\n\ntol = 1e-11\n"
        raw = parse_config_file(text)
        assert raw == {"kind": "ode", "A": "1000", "N": "180",
                       "grid": "alt10", "tol": "1e-11"}

    def test_rejects_malformed_line(self):
        with pytest.raises(ValueError):
            parse_config_file("kind ode\n")

    def test_rejects_a_key_given_twice(self):
        with pytest.raises(ValueError, match="^config line 3: 'N' given twice$"):
            parse_config_file("N = 10\nkind = ode\nN = 20\n")

    def test_mesh_spec_rejects_an_option_given_twice(self):
        with pytest.raises(ValueError, match="^mesh option 'n' given twice$"):
            parse_mesh_spec("structured:n=2:n=3")

    def test_mesh_spec(self):
        m = parse_mesh_spec("structured:n=3:pattern=crisscross")
        assert m.n_triangles == 36
        with pytest.raises(ValueError):
            parse_mesh_spec("structured:pattern=diagonal")
        with pytest.raises(ValueError):
            parse_mesh_spec("weird:1")

    def test_mesh_file_spec(self, tmp_path):
        from wavest.mesh import format_mesh
        path = tmp_path / "square.msh"
        path.write_text(format_mesh(generate_structured(1)), encoding="ascii")
        m = parse_mesh_spec(f"file:{path}")
        assert m.n_triangles == 2


class TestCli:
    def test_ode_run_writes_outputs(self, tmp_path, capsys):
        from wavest.cli import main
        out = tmp_path / "row.csv"
        trace = tmp_path / "trace.csv"
        code = main(["ode", "--A", "100", "--N", "100", "--grid", "uniform",
                     "--out", str(out), "--trace", str(trace)])
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert header == ",".join(ODE_COLUMNS)
        assert len(trace.read_text().splitlines()) == 102

    def test_stdout_when_no_out(self, capsys):
        from wavest.cli import main
        assert main(["ode", "--A", "100", "--N", "100", "--grid", "uniform"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(",".join(ODE_COLUMNS))

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        from wavest.cli import main
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("kind = ode\nA = 100\nN = 100\ngrid = uniform\n")
        assert main(["--config", str(cfgfile), "--N", "200"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1].split(",")[1] == "200"

    def test_error_exit_code(self, capsys):
        from wavest.cli import main
        assert main(["ode", "--grid", "uniform"]) == 1  # missing N
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, error", [
        (["ode", "--grid", "decay", "--tau0", "0.01"], None),
        (["ode", "--grid", "alt10", "--N", "180"], None),
        (["ode", "--grid", "decay"], "the decay grid needs tau0"),
        (["ode", "--grid", "alt100"], "the alt100 grid needs N"),
        (["wave", "--mesh", "structured:n=2", "--grid", "uniform"], "the uniform grid needs N"),
        (["ode", "--N", "10", "--tau0", "0.1"], "the uniform grid does not use tau0"),
        (["ode", "--grid", "decay", "--tau0", "0.1", "--N", "10"], "the decay grid does not use N"),
    ], ids=[   # explicit: removing a case renames no other
            "argv0-None", "argv1-None", "argv2-the decay grid needs tau0",
            "argv3-the alt100 grid needs N", "argv4-the uniform grid needs N",
            "argv5-the uniform grid does not use tau0", "argv6-the decay grid does not use N"])
    def test_grid_arguments(self, argv, error, capsys):
        from wavest.cli import main
        assert main(argv) == (0 if error is None else 1)
        err = capsys.readouterr().err
        if error is None:
            assert err == ""
        else:
            assert err == f"wavest: error: {error}\n"

    @pytest.mark.parametrize("argv", [
        ["ode", "--grid", "alt10", "--taustar", "0.1"],
        ["ode", "--grid", "decay-literal", "--tau0", "0.01"],
    ], ids=["taustar", "decay-literal"])
    def test_a_command_line_argparse_rejects_exits_2(self, argv, capsys):
        # argparse rejects it before main's own handling: SystemExit(2) in process
        from wavest.cli import main
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: wavest")

    @pytest.mark.parametrize("setting, error", [
        ("grid = alt10\ntaustar = 0.1", "unknown config key 'taustar'"),
        ("grid = decay-literal\ntau0 = 0.01", "unknown grid rule: 'decay-literal'"),
    ], ids=["taustar", "decay-literal"])
    def test_a_retired_grid_setting_in_a_config_file_fails(self, setting, error, tmp_path,
                                                            capsys):
        from wavest.cli import main
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"kind = ode\n{setting}\n")
        assert main(["--config", str(cfgfile)]) == 1
        assert capsys.readouterr().err == f"wavest: error: {error}\n"

    @pytest.mark.parametrize("argv", [
        ["wave", "--mesh", "structured:n=100:pattern=crisscross", "--grid", "uniform", "--N", "3"],
        ["wave", "--mesh", "structured:n=100:pattern=crisscross", "--grid", "decay",
         "--tau0", "0.9"],
        ["ode", "--N", "3"],
    ], ids=["wave-uniform-3", "wave-decay-2", "ode-uniform-3"])
    def test_fewer_than_4_steps_fail_before_the_mesh(self, argv, monkeypatch, capsys):
        # the step count is checked as soon as the grid is built: no mesh, no space
        from wavest.cli import main

        def never(*_args, **_kwargs):
            raise AssertionError("built after a grid of fewer than 4 steps")

        for name in ("parse_mesh_spec", "FemSpace"):
            monkeypatch.setattr(harness, name, never)
        assert main(argv) == 1
        assert capsys.readouterr().err == \
            "wavest: error: the 5-point estimator needs at least 4 steps\n"

    def test_four_steps_suffice(self, capsys):
        from wavest.cli import main
        assert main(["ode", "--N", "4"]) == 0
        assert main(["wave", "--mesh", "structured:n=3", "--N", "4"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("T, error", [
        ("1", None),
        ("2", "manufactured solution 'gaussian' reaches |u| = 0.999 on the boundary at "
              "t = 1.32438, above the bound 0.001 of the homogeneous Dirichlet condition"),
    ])
    def test_boundary_trace_checked_before_stepping(self, T, error, capsys):
        from wavest.cli import main
        assert main(["wave", "--grid", "decay", "--tau0", "0.05", "--T", T]) == \
            (0 if error is None else 1)
        err = capsys.readouterr().err
        assert err == ("" if error is None else f"wavest: error: {error}\n")

    def test_boundary_trace_checked_between_grid_times(self, capsys):
        # the pulse reaches the boundary near t = 1.32, which a 4-step grid
        # on [0, 2] steps over (at t = 1.5 its trace is back under the bound)
        from wavest.cli import main
        assert main(["wave", "--mesh", "structured:n=3", "--N", "4", "--T", "2"]) == 1
        assert capsys.readouterr().err == (
            "wavest: error: manufactured solution 'gaussian' reaches |u| = 1 on the "
            "boundary at t = 1.322, above the bound 0.001 of the homogeneous Dirichlet condition\n")

    @pytest.mark.parametrize("argv", [
        ["wave", "--mesh", "structured:n=1", "--N", "4"],
        ["bench", "--mesh", "structured:n=1"],
    ], ids=["wave", "bench"])
    def test_mesh_without_interior_vertex_rejected(self, argv, monkeypatch, capsys):
        # its discrete space is {0}: refused before a space is built
        from wavest.cli import main

        def never(*_args, **_kwargs):
            raise AssertionError("a space built on a mesh without interior vertices")

        monkeypatch.setattr(harness, "FemSpace", never)
        assert main(argv) == 1
        assert capsys.readouterr().err == ("wavest: error: the mesh has no interior vertex, "
                                           "so its discrete space is {0}\n")

    @pytest.mark.parametrize("tol", ["-1", "nan", "0", "inf"])
    def test_tolerance_must_be_finite_and_positive(self, tol, capsys):
        from wavest.cli import main
        assert main(["wave", "--mesh", "structured:n=4", "--tol", tol, "--N", "4"]) == 1
        assert capsys.readouterr().err == \
            f"wavest: error: tol must be a finite positive number, got {float(tol)!r}\n"

    @pytest.mark.parametrize("tol", ["-1", "nan", "0", "inf"])
    def test_scalar_model_checks_the_tolerance_too(self, tol, capsys):
        from wavest.cli import main
        assert main(["ode", "--N", "10", "--tol", tol]) == 1
        assert capsys.readouterr().err == \
            f"wavest: error: tol must be a finite positive number, got {float(tol)!r}\n"

    @pytest.mark.parametrize("tol", ["1e-17", "1e-300", "5e-324"])
    @pytest.mark.parametrize("kind", [["wave", "--mesh", "structured:n=4", "--N", "8"],
                                      ["ode", "--N", "10"]], ids=["wave", "ode"])
    def test_tolerance_below_machine_epsilon_fails(self, kind, tol, capsys):
        # CG would meet such a tol only when its residual underflows
        from wavest.cli import main
        assert main([*kind, "--tol", tol]) == 1
        assert capsys.readouterr().err == ("wavest: error: tol must be at least the machine "
                                           f"epsilon 2.22045e-16, got {float(tol)!r}\n")

    def test_scalar_model_accepts_a_tolerance(self, capsys):
        # one command-line tail (--tol 1e-13) serves every kind
        from wavest.cli import main
        assert main(["ode", "--N", "10", "--tol", "1e-13"]) == 0
        assert main(["ode", "--N", "10"]) == 0
        tight, default = capsys.readouterr().out.split(",".join(ODE_COLUMNS) + "\n")[1:]
        assert tight == default

    @pytest.mark.parametrize("argv, config, error", [
        (["ode", "--N", "10", "--tol", "-1", "--mesh", "structured:n=3"], "",
         "the ode experiment does not use mesh"),
        (["--N", "10"], "kind = ode\nsolution = mode\n",
         "the ode experiment does not use solution"),
        (["wave", "--A", "5", "--mesh", "structured:n=3", "--N", "4"], "",
         "the wave experiment does not use A"),
        (["bench", "--mesh", "structured:n=3", "--tol", "1e-13"], "",
         "the bench experiment does not use tol"),
        (["--mesh", "structured:n=3", "--T", "2"], "kind = bench\nN = 4\ngrid = alt10\n",
         "the bench experiment does not use grid or N or T"),
    ], ids=["argv0--the ode experiment does not use mesh",
            "argv1-kind = ode\nsolution = mode\n-the ode experiment does not use solution",
            "argv2--the wave experiment does not use A",
            "argv3--the bench experiment does not use tol",
            "argv4-kind = bench\nN = 4\ngrid = alt10\n"
            "-the bench experiment does not use grid or N or T"])
    def test_a_setting_the_kind_does_not_read_fails(self, argv, config, error, tmp_path, capsys):
        from wavest.cli import main
        if config:
            cfgfile = tmp_path / "run.cfg"
            cfgfile.write_text(config)
            argv = ["--config", str(cfgfile), *argv]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"wavest: error: {error}\n"

    @pytest.mark.parametrize("A", ["-5", "0", "nan", "inf"])
    def test_stiffness_checked_before_use(self, A, capsys):
        # A is validated before sqrt(A) is taken, so no RuntimeWarning comes first
        import warnings

        from wavest.cli import main
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["ode", "--A", A, "--N", "10"]) == 1
        assert capsys.readouterr().err == ("wavest: error: stiffness constant A must be a "
                                           f"finite positive number, got {float(A)!r}\n")

    def test_wave_smoke(self, tmp_path):
        from wavest.cli import main
        out = tmp_path / "wave.csv"
        code = main(["wave", "--mesh", "structured:n=6:pattern=diagonal",
                     "--grid", "uniform", "--N", "6", "--T", "1.0",
                     "--out", str(out)])
        assert code == 0
        assert out.read_text().splitlines()[0] == ",".join(WAVE_COLUMNS)

    def test_payload_key_is_unknown(self, tmp_path, capsys):
        # every payload is sqrt(a^2 + b^2) of its two norm terms: there is no
        # payload form to choose
        from wavest.cli import main
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("kind = ode\nA = 100\nN = 100\ngrid = uniform\npayload = rms\n")
        assert main(["--config", str(cfgfile)]) == 1
        assert capsys.readouterr().err == "wavest: error: unknown config key 'payload'\n"

    def test_method_name_is_not_a_config_key(self, tmp_path, capsys):
        from wavest.cli import main
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("kind = ode\nA = 100\nN = 100\nbuild_grid = x\n")
        assert main(["--config", str(cfgfile)]) == 1
        assert capsys.readouterr().err == "wavest: error: unknown config key 'build_grid'\n"

    def test_config_keys_are_the_flag_names(self, tmp_path, capsys):
        # grid and mesh are the flag names; grid_rule and mesh_spec are no key
        from wavest.cli import main
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("kind = wave\nmesh = structured:n=4:pattern=diagonal\n"
                           "grid = uniform\nN = 4\n")
        assert main(["--config", str(cfgfile)]) == 0
        row = dict(zip(*(line.split(",") for line in capsys.readouterr().out.splitlines())))
        assert row["h"] == "0.353553" and row["N_ts"] == "4"   # h of n=4 is sqrt(2)/4
        for key, value in (("grid_rule", "alt10"), ("mesh_spec", "structured:n=4")):
            cfgfile.write_text(f"kind = ode\nA = 100\nN = 100\n{key} = {value}\n")
            assert main(["--config", str(cfgfile)]) == 1
            assert capsys.readouterr().err == f"wavest: error: unknown config key '{key}'\n"

    @pytest.mark.parametrize("name", ["mode(2,3)", "modex"])
    def test_unknown_solution_name_fails(self, name, tmp_path, capsys):
        from wavest.cli import main
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"kind = wave\nsolution = {name}\n")
        assert main(["--config", str(cfgfile), "--mesh", "structured:n=2", "--grid", "uniform",
                     "--N", "4"]) == 1
        assert capsys.readouterr().err == \
            f"wavest: error: unknown manufactured solution '{name}'\n"

    def test_bench_writes_two_rows(self, tmp_path):
        from wavest.cli import main
        out = tmp_path / "bench.csv"
        assert main(["bench", "--mesh", "structured:n=6:pattern=diagonal", "--out", str(out)]) == 0
        header, *lines = out.read_text().splitlines()
        assert header == ",".join(BENCH_COLUMNS)
        rows = [dict(zip(BENCH_COLUMNS, line.split(","))) for line in lines]
        assert [r["path"] for r in rows] == ["eta3", "eta5"]
        assert all(r["n_vertices"] == "49" for r in rows)
        # the run's calls per path: one per interior node, one per node from t_3
        assert [r["steps"] for r in rows] == [str(BENCH_STEPS - 1), str(BENCH_STEPS - 3)]
        # one auxiliary solve per call on the 3-point path, none on the 5-point
        assert [r["aux_solves"] for r in rows] == [rows[0]["steps"], "0"]
        assert all(float(r["seconds_per_step"]) > 0 for r in rows)


class TestBenchmark:
    def test_counters_small_mesh(self, eta5_solves):
        rows = benchmark_estimators("structured:n=12")
        assert [r["path"] for r in rows] == ["eta3", "eta5"]
        assert all(set(r) == set(BENCH_COLUMNS) for r in rows)
        eta3, eta5 = rows
        assert eta3["steps"] == eta3["aux_solves"] == BENCH_STEPS - 1
        assert eta5["steps"] == BENCH_STEPS - 3 and eta5["aux_solves"] == 0
        # one eta5 call per node from t_3, none of which solves
        assert len(eta5_solves) == eta5["steps"]
        assert sum(eta5_solves) == 0
        assert eta3["seconds_per_step"] > 0

    def test_builds_only_the_nodes_its_windows_read(self, monkeypatch):
        # one wave run of BENCH_STEPS steps, each of BENCH_TAU exactly, has
        # BENCH_STEPS - 1 interior nodes, each differenced once and evaluated
        # by eta3 once; eta5's windows of three nodes end at each node from
        # t_3.  The rows take the medians of all of the accumulator's timings.
        calls, node_diffs, runs, accs = [], estimators.node_diffs, [], []
        run = harness.run_wave_experiment

        def counted(*args, **kwargs):
            calls.append(1)
            return node_diffs(*args, **kwargs)

        def recorded_run(config):
            runs.append(config)
            return run(config)

        class Recorded(harness.WaveEstimatorAccumulator):
            def __init__(self, space):
                super().__init__(space)
                accs.append(self)

        monkeypatch.setattr(estimators, "node_diffs", counted)
        monkeypatch.setattr(harness, "run_wave_experiment", recorded_run)
        monkeypatch.setattr(harness, "WaveEstimatorAccumulator", Recorded)
        eta3, eta5 = benchmark_estimators("structured:n=6")
        (config,), (acc,) = runs, accs
        assert config.solution == "mode" and config.mesh == "structured:n=6"
        assert np.all(np.diff(acc.times) == BENCH_TAU) and len(acc.times) == BENCH_STEPS + 1
        assert len(calls) == len(acc.eta3_seconds) == BENCH_STEPS - 1
        assert len(acc.eta5_seconds) == BENCH_STEPS - 3
        assert eta3["seconds_per_step"] == np.median(acc.eta3_seconds)
        assert eta5["seconds_per_step"] == np.median(acc.eta5_seconds)
        assert acc.space.aux_solves.solves == len(acc.eta3_seconds) == eta3["aux_solves"]
