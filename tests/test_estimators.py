"""Wave-side estimators: samples, solve counters, space parts, edge jumps."""

import numpy as np
import pytest

from wavest import estimators, fem
from wavest.estimators import (SpaceEstimatorAccumulator, WaveEstimatorAccumulator,
                               eta3_step, eta5_step, node_diffs)
from wavest.fem import FemSpace
from wavest.grids import alternating_grid, uniform_grid
from wavest.manufactured import gaussian_pulse
from wavest.mesh import Mesh, generate_structured, import_mesh
from wavest.newmark import NewmarkWaveSolver, WaveProblem, WaveState
from wavest.ode import (OdeProblem, eta3_ode_samples, eta5_ode_samples, solve_newmark_ode)
from wavest.stencils import initial_weight, step_weight

from oracles import clockwise_payload, element_l2_sq, jittered_crisscross

RNG = np.random.default_rng(3)


def states_from(space, times, u_list, v_list, f_list=None):
    """States from free-vertex u, v and all-vertex f_h (zero by default); the estimators read no a."""
    zero_f, zero_a = np.zeros(space.mesh.n_vertices), np.zeros(len(space.free))
    return [WaveState(t=t, u=np.asarray(u_list[k], dtype=float),
                      v=np.asarray(v_list[k], dtype=float),
                      f_h=zero_f if f_list is None else f_list[k], a=zero_a)
            for k, t in enumerate(times)]


def nodes_from(space, states):
    """Second differences at every interior node of a state sequence."""
    return [node_diffs(space, states[k:k + 3]) for k in range(len(states) - 2)]


class TestTimeSamples:
    def test_zero_window_gives_zero(self):
        space = FemSpace(generate_structured(3))
        nf = len(space.free)
        times = [0.0, 0.1, 0.25, 0.4, 0.5]
        zeros = [np.zeros(nf)] * 5
        nodes = nodes_from(space, states_from(space, times, zeros, zeros))
        assert eta3_step(space, nodes[-1]) == 0.0
        assert eta5_step(space, nodes) == 0.0
        acc = WaveEstimatorAccumulator(space)
        for state in states_from(space, times, zeros, zeros):
            acc.push(state)
        inc3, inc5 = acc.increments()
        assert inc3[0] == 0.0  # initial slab
        assert not inc3.any() and not inc5.any()

    def test_stationary_solution_gives_zero_eta3(self):
        # u constant in time, v = 0 and f_h consistent with the stationary
        # state: all second differences vanish
        space = FemSpace(generate_structured(3), tol=1e-13)
        nf = len(space.free)
        u = RNG.normal(size=nf)
        f_full = RNG.normal(size=space.mesh.n_vertices)
        times = [0.0, 0.08, 0.2]
        states = states_from(space, times, [u] * 3, [np.zeros(nf)] * 3, [f_full] * 3)
        assert eta3_step(space, node_diffs(space, states)) <= 1e-12

    def test_weights(self):
        assert step_weight(0.2, 0.1) == pytest.approx(0.2 ** 2 / 12 + 0.1 * 0.2 / 8)
        assert initial_weight(0.1, 0.2) == pytest.approx(5 / 12 * 0.01 + 0.5 * 0.02)
        # uniform initial weight is (5/12 + 1/2) tau^2
        assert initial_weight(0.1, 0.1) == pytest.approx((11.0 / 12.0) * 0.01)

    def test_eta3_initial_shares_payload_with_k1_sample(self):
        sol = gaussian_pulse()
        space = FemSpace(generate_structured(6), tol=1e-12)
        problem = _problem(sol)
        solver = NewmarkWaveSolver(problem, space)
        acc = WaveEstimatorAccumulator(space)
        state = solver.initial_state()
        acc.push(state)
        for tau in (0.01, 0.015, 0.012, 0.02):
            state = solver.step(state, tau)
            acc.push(state)
        inc3, _ = acc.increments()
        tau = np.diff(acc.times)
        assert tau[:2] == pytest.approx([0.01, 0.015], rel=1e-12)
        # the initial slab (entry 0) and the t_1 entry share the t_1 payload
        payload = acc.eta3_payloads[0]
        assert payload > 0
        assert inc3[0] == tau[0] * initial_weight(tau[0], tau[1]) * payload
        assert inc3[1] == tau[1] * step_weight(tau[1], tau[0]) * payload

    def test_eta3_counts_exactly_one_mass_solve(self):
        space = FemSpace(generate_structured(4))
        nf = len(space.free)
        times = [0.0, 0.1, 0.2]
        states = states_from(space, times, [RNG.normal(size=nf) for _ in range(3)],
                             [RNG.normal(size=nf) for _ in range(3)])
        node = node_diffs(space, states)
        assert space.aux_solves.solves == 0
        eta3_step(space, node)
        assert space.aux_solves.solves == 1

    def test_eta5_performs_no_solves(self, monkeypatch):
        space = FemSpace(generate_structured(4))
        nf = len(space.free)
        times = [0.0, 0.1, 0.18, 0.3, 0.42]
        nodes = nodes_from(space, states_from(space, times,
                                              [RNG.normal(size=nf) for _ in range(5)],
                                              [RNG.normal(size=nf) for _ in range(5)]))
        calls = []
        orig = fem.solve_spd
        monkeypatch.setattr(fem, "solve_spd", lambda *a, **k: calls.append(1) or orig(*a, **k))
        eta5_step(space, nodes)
        assert calls == []

    def test_push_differences_each_node_once(self, monkeypatch):
        # one push: d2u, d2v, d2f and |d2v|_H1, each computed once per node
        space = FemSpace(generate_structured(4))
        solver = NewmarkWaveSolver(_problem(gaussian_pulse()), space)
        grid = uniform_grid(8, T=1.0)
        d2_calls, h1_calls = [], []
        second_diff = estimators.second_diff
        h1_seminorm = space.h1_seminorm
        monkeypatch.setattr(estimators, "second_diff",
                            lambda *a: d2_calls.append(1) or second_diff(*a))
        monkeypatch.setattr(space, "h1_seminorm",
                            lambda *a: h1_calls.append(1) or h1_seminorm(*a))
        acc = WaveEstimatorAccumulator(space)
        for n, state in enumerate(solver.run(grid)):
            d2_calls.clear()
            h1_calls.clear()
            acc.push(state)
            interior = 1 if n >= 2 else 0
            assert (len(d2_calls), len(h1_calls)) == (3 * interior, interior), n

    def test_eta5_matches_scalar_model_increments(self):
        # on a one-dimensional surrogate (single interior node), the wave-side
        # samples equal the scalar-model increments with A = lam, the Rayleigh
        # quotient of that node: the scalar model is the 1x1 case
        space = FemSpace(generate_structured(2), tol=1e-13)
        assert len(space.free) == 1
        m = float(space.mass_ff.toarray()[0, 0])
        k = float(space.stiffness_ff.toarray()[0, 0])
        lam = k / m
        # scalar trajectory of u'' + lam u = 0 via the shared solver
        problem = OdeProblem(A=lam, u0=1.0, v0=0.0)
        grid = alternating_grid(n_steps=12, T=1.0, small=0.5)
        traj = solve_newmark_ode(problem, grid)
        # feed the same scalar sequence through the wave-side machinery; nodal
        # values scaled by 1/sqrt(m) turn the discrete H1/L2 norms into the
        # scalar-model payloads sqrt(A d2v^2 + (A d2u)^2) and
        # sqrt(A d2v^2 + d4u^2) exactly
        acc = WaveEstimatorAccumulator(space)
        for state in states_from(space, grid.points, traj.u[:, None] / np.sqrt(m),
                                 traj.v[:, None] / np.sqrt(m)):
            acc.push(state)
        inc3, inc5 = acc.increments()
        np.testing.assert_allclose(
            inc3, eta3_ode_samples(traj, lam), rtol=1e-10)
        np.testing.assert_allclose(inc5, eta5_ode_samples(traj, lam), rtol=1e-10)

    def test_gaussian_anchor_order_of_magnitude(self):
        # coarse check against the published magnitude at (h=.05, tau0=.01)
        # on an unpublished Delaunay mesh; only the order is comparable
        from wavest.grids import decaying_grid
        from wavest.harness import run_wave_experiment, ExperimentConfig
        cfg = ExperimentConfig(kind="wave", mesh="structured:n=28:pattern=diagonal",
                               grid="decay", tau0=0.01, T=1.0, tol=1e-10)
        row, _, _ = run_wave_experiment(cfg)
        assert 0.02 <= row["eta_T"] <= 0.5
        assert 0.02 <= row["eta_T_hat"] <= 0.5


def _problem(sol):
    grad_u0, grad_v0 = sol.initial_data()
    return WaveProblem(f=sol.f, grad_u0=grad_u0, grad_v0=grad_v0)


def scaled_jumps(space, full_values):
    """h_E [n . grad u]_E on every interior edge, through the accumulator's operator J."""
    return SpaceEstimatorAccumulator(space).jump @ full_values


def per_edge_jump_sum(mesh, vals):
    """sum_E h_E ||[n . grad u]||_E^2 by loops: the interior edges found from the triangles
    (not from the mesh's edge table), the gradients solved per triangle."""

    def gradient(tri):
        ids = mesh.triangles[tri]
        return np.linalg.solve(np.column_stack([np.ones(3), mesh.vertices[ids]]), vals[ids])[1:]

    owners = {}
    for t, tri in enumerate(mesh.triangles):
        for k in range(3):
            owners.setdefault(tuple(sorted((tri[k], tri[(k + 1) % 3]))), []).append(t)
    total = 0.0
    for (a, b), tris in owners.items():
        if len(tris) == 1:   # a boundary edge
            continue
        left, right = tris
        edge = mesh.vertices[b] - mesh.vertices[a]
        length = np.linalg.norm(edge)
        normal = np.array([edge[1], -edge[0]]) / length
        jump = float((gradient(left) - gradient(right)) @ normal)
        total += length * (jump ** 2 * length)
    return total


class TestEdgeJumps:
    def test_affine_field_has_no_jump(self):
        space = FemSpace(generate_structured(1))
        vals = 2.0 * space.mesh.vertices[:, 0] - 0.7 * space.mesh.vertices[:, 1] + 1.0
        jumps = scaled_jumps(space, vals)
        np.testing.assert_allclose(jumps, 0.0, atol=1e-14)

    def test_hat_on_unit_square_hand_value(self):
        # hat at (0,0), an endpoint of the diagonal of the 2-triangle square:
        # gradients are (-1, 0) and (0, -1); the jump magnitude across the
        # diagonal is sqrt(2), so the squared edge norm is 2 * sqrt(2)
        space = FemSpace(generate_structured(1))
        vals = np.zeros(4)
        origin = np.flatnonzero((space.mesh.vertices == 0.0).all(axis=1))[0]
        vals[origin] = 1.0
        diagonal = space.mesh.edge_vertices[space.mesh.edge_sides[:, 1] >= 0][0]
        length = np.linalg.norm(np.subtract(*space.mesh.vertices[diagonal]))
        got = scaled_jumps(space, vals)[0] ** 2 / length
        assert got == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-13)

    def test_orientation_flip_invariance(self, monkeypatch):
        space = FemSpace(generate_structured(2))
        vals = RNG.normal(size=space.mesh.n_vertices)
        sq = scaled_jumps(space, vals) ** 2
        # flipping the normals J is built from leaves the squared jumps unchanged
        normals = estimators.scaled_edge_normals
        monkeypatch.setattr(estimators, "scaled_edge_normals", lambda *a: -normals(*a))
        sq_flipped = scaled_jumps(space, vals) ** 2
        np.testing.assert_allclose(sq, sq_flipped, rtol=1e-14)

    def test_hat_jump_sums_against_per_edge_oracle(self):
        # independent evaluation: per-edge geometric computation of the two
        # constant gradients from the vertex coordinates, on the hat of the
        # centre of structured n=2, then on random values on a jittered mesh
        # and on an imported one that had every other triangle clockwise
        mesh = generate_structured(2)
        vals = np.zeros(mesh.n_vertices)
        vals[np.flatnonzero(np.isclose(mesh.vertices, 0.5).all(axis=1))[0]] = 1.0
        with pytest.warns(UserWarning, match="reoriented"):
            imported = import_mesh(clockwise_payload(jittered_crisscross(4, seed=5))[0])
        cases = [(mesh, vals)] + [(m, RNG.normal(size=m.n_vertices))
                                  for m in (jittered_crisscross(5), imported)]
        for mesh, vals in cases:
            jump = SpaceEstimatorAccumulator(FemSpace(mesh)).jump
            # two triangles share two vertices: four distinct vertices per edge
            np.testing.assert_array_equal(np.diff(jump.indptr), 4)
            got = float(np.sum((jump @ vals) ** 2))
            assert got == pytest.approx(per_edge_jump_sum(mesh, vals), rel=1e-12)


class TestSpaceEstimator:
    def test_zero_trajectory(self):
        space = FemSpace(generate_structured(3))
        acc = SpaceEstimatorAccumulator(space)
        nf = len(space.free)
        times = [0.0, 0.1, 0.2]
        states = states_from(space, times, [np.zeros(nf)] * 3, [np.zeros(nf)] * 3)
        acc.update(states, node_diffs(space, states))
        assert acc.parts == (0.0, 0.0)

    def test_affine_u_with_matching_f_no_jump_part(self):
        # globally affine u has continuous gradient: jumps vanish; with
        # central-difference v matching f the volume part vanishes too
        space = FemSpace(generate_structured(1))
        mesh = space.mesh
        affine = 1.0 + 2.0 * mesh.vertices[:, 0] - mesh.vertices[:, 1]
        jumps = scaled_jumps(space, affine)
        np.testing.assert_allclose(jumps, 0.0, atol=1e-14)

    @pytest.mark.parametrize("mesh", [lambda: jittered_crisscross(6),
                                      lambda: generate_structured(56, "crisscross")],
                             ids=["jittered6", "crisscross56"])
    def test_weighted_mass_form_against_element_integrals(self, mesh):
        # M_h keeps only its values and shares the mass matrix's index arrays
        space = FemSpace(mesh())
        h_mass = space.h_mass
        assert h_mass.indices is space.mass.indices and h_mass.indptr is space.mass.indptr
        h_sq = space.mesh.h_K ** 2
        for _ in range(3):
            r = RNG.normal(size=space.mesh.n_vertices)
            oracle = np.sum(h_sq * element_l2_sq(space, r))
            assert r @ (h_mass @ r) == pytest.approx(oracle, rel=1e-13)

    def test_parts_accumulate(self):
        sol = gaussian_pulse()
        space = FemSpace(generate_structured(8), tol=1e-10)
        solver = NewmarkWaveSolver(_problem(sol), space)
        acc = SpaceEstimatorAccumulator(space)
        states = [solver.initial_state()]
        part2_prev = 0.0
        for _ in range(4):
            states.append(solver.step(states[-1], 0.02))
            if len(states) >= 3:
                acc.update(states[-3:], node_diffs(space, states[-3:]))
                p1, p2 = acc.parts
                assert p1 >= 0 and p2 >= part2_prev
                part2_prev = p2
        assert part2_prev > 0


    def test_parts_against_per_triangle_per_edge_oracle(self):
        # jittered crisscross mesh, Gaussian forcing, non-uniform steps; the
        # oracle integrates the residual on each triangle with the local mass
        # matrix and recomputes each edge jump from the vertex coordinates
        base = generate_structured(6, "crisscross")
        rng = np.random.default_rng(7)
        verts = base.vertices.copy()
        free = ~base.boundary_vertex
        radius = 0.1 * base.h * np.sqrt(rng.uniform(size=free.sum()))
        angle = rng.uniform(0.0, 2.0 * np.pi, size=free.sum())
        verts[free] += radius[:, None] * np.column_stack([np.cos(angle), np.sin(angle)])
        mesh = Mesh(vertices=verts, triangles=base.triangles,
                    boundary_vertex=base.boundary_vertex)
        space = FemSpace(mesh, tol=1e-12)
        solver = NewmarkWaveSolver(_problem(gaussian_pulse()), space)
        states = [solver.initial_state()]
        for tau in (0.02, 0.03, 0.015, 0.025):
            states.append(solver.step(states[-1], tau))
        acc = SpaceEstimatorAccumulator(space)
        local_mass = (np.ones((3, 3)) + np.eye(3)) / 12.0

        def part(residual, u):
            total = 0.0
            for tri, ids in enumerate(mesh.triangles):
                p = verts[ids]
                h_k = max(np.linalg.norm(p[a] - p[b]) for a, b in ((0, 1), (1, 2), (2, 0)))
                e1, e2 = p[1] - p[0], p[2] - p[0]
                area = 0.5 * (e1[0] * e2[1] - e1[1] * e2[0])
                r = residual[ids]
                total += h_k ** 2 * area * (r @ local_mass @ r)
            return total + per_edge_jump_sum(mesh, u)

        part1, part2 = 0.0, 0.0
        for k in range(len(states) - 2):
            window = states[k:k + 3]
            acc.update(window, node_diffs(space, window))
            s0, s1, s2 = window
            tau_prev, tau = s1.t - s0.t, s2.t - s1.t
            central = tau_prev + tau
            full = space.full
            v_c = (full(s2.v) - full(s0.v)) / central
            part1 = max(part1, np.sqrt(part(v_c - s1.f_h, full(s1.u))))
            d2v = ((full(s2.v) - full(s1.v)) / tau
                   - (full(s1.v) - full(s0.v)) / tau_prev) / (central / 2)
            f_c = (s2.f_h - s0.f_h) / central
            u_c = (full(s2.u) - full(s0.u)) / central
            part2 += tau * np.sqrt(part(d2v - f_c, u_c))
        assert acc.part1_max == pytest.approx(part1, rel=1e-13)
        assert acc.part2_sum == pytest.approx(part2, rel=1e-13)


class TestAccumulator:
    def test_counts_and_totals(self, eta5_solves):
        sol = gaussian_pulse()
        space = FemSpace(generate_structured(6), tol=1e-10)
        solver = NewmarkWaveSolver(_problem(sol), space)
        grid = uniform_grid(8, T=1.0)
        acc = WaveEstimatorAccumulator(space)
        for state in solver.run(grid):
            acc.push(state)
        # one auxiliary mass solve per interior node k = 1..N-1, none on the
        # 5-point path (k = 3..N-1)
        assert space.aux_solves.solves == grid.n_steps - 1
        assert eta5_solves == [0] * (grid.n_steps - 3)
        inc3, inc5 = acc.increments()
        assert len(inc3) == grid.n_steps  # initial + N-1 regular
        assert len(inc5) == grid.n_steps - 3
        assert inc3.sum() > 0 and inc5.sum() > 0 and acc.space_acc.total > 0

    def test_rejects_non_increasing_times(self):
        # the accumulator keeps its last three states in a plain deque; time
        # order is enforced by the second differences' positive-step guard
        space = FemSpace(generate_structured(2))
        zeros = [np.zeros(len(space.free))] * 3
        for times in ([0.0, 0.1, 0.1], [0.0, 0.0, 0.1], [0.0, 0.2, 0.1]):
            acc = WaveEstimatorAccumulator(space)
            states = states_from(space, times, zeros, zeros)
            acc.push(states[0])
            acc.push(states[1])
            with pytest.raises(ValueError, match="steps must be positive"):
                acc.push(states[2])
