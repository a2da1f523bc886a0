"""FEM kernels: assembly against hand integration, projections, solver, norms."""

import numpy as np
import pytest

from wavest.fem import (FemSpace, SolveCounter, SolverError, assemble_mass,
                        assemble_stiffness, quadrature_rule, solve_spd)
from wavest.mesh import Mesh, generate_structured

RNG = np.random.default_rng(42)


def single_right_triangle():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2]])
    return Mesh(vertices=verts, triangles=tris, boundary_vertex=np.ones(3, bool))


def subdivided_load_oracle(space, g, levels=1):
    """Load vector with each triangle split 4^levels ways (same P1 hats).

    Independent of assemble_load: integrates g * phi_i by mapping the rule to
    every subtriangle, with the hat values interpolated barycentrically.
    """
    def refine(corners):
        a, b, c = corners
        ab, bc, ca = (a + b) / 2, (b + c) / 2, (c + a) / 2
        return [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]

    # barycentric corner coordinates of all subtriangles
    tris = [(np.array([1.0, 0, 0]), np.array([0.0, 1, 0]), np.array([0.0, 0, 1]))]
    for _ in range(levels):
        tris = [s for t in tris for s in refine(t)]
    rule = space.rule
    out = np.zeros(space.mesh.n_vertices)
    p = space.mesh.vertices[space.mesh.triangles]  # (nt, 3, 2)
    for corners in tris:
        corners = np.stack(corners)                      # (3, 3) barycentric
        sub_bary = rule.points @ corners                 # (q, 3) in parent coords
        xy = np.einsum("qb,tbd->tqd", sub_bary, p)
        vals = np.asarray(g(xy[:, :, 0], xy[:, :, 1]), dtype=float)
        frac = 0.25 ** levels
        contrib = np.einsum("tq,q,qb,t->tb", vals, rule.weights, sub_bary,
                            space.area * frac)
        np.add.at(out, space.mesh.triangles.ravel(), contrib.ravel())
    return out


class TestQuadrature:
    def test_weights_sum_to_one(self):
        for deg in (1, 2, 5):
            assert quadrature_rule(deg).weights.sum() == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("degree", [1, 2, 5])
    def test_monomial_exactness(self, degree):
        # integrate x^p y^q over the reference triangle; exact value is
        # p! q! / (p + q + 2)!
        from math import factorial
        rule = quadrature_rule(degree)
        space = FemSpace(single_right_triangle(), rule)
        for p in range(degree + 1):
            for q in range(degree + 1 - p):
                exact = factorial(p) * factorial(q) / factorial(p + q + 2)
                got = space.assemble_load(lambda x, y: x ** p * y ** q).sum()
                assert got == pytest.approx(exact, rel=1e-13), (p, q)


class TestAssembly:
    def test_local_mass_hand_integrated(self):
        M = assemble_mass(single_right_triangle()).toarray()
        expected = np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]]) / 24.0
        np.testing.assert_allclose(M, expected, atol=1e-15)

    def test_local_stiffness_hand_integrated(self):
        K = assemble_stiffness(single_right_triangle()).toarray()
        expected = 0.5 * np.array([[2, -1, -1], [-1, 1, 0], [-1, 0, 1]])
        np.testing.assert_allclose(K, expected, atol=1e-15)

    def test_mass_total_is_domain_area(self):
        m = generate_structured(4, "crisscross")
        assert assemble_mass(m).sum() == pytest.approx(1.0, abs=1e-12)

    def test_constant_field_mass_energy(self):
        m = generate_structured(3)
        M = assemble_mass(m)
        c = 2.5 * np.ones(m.n_vertices)
        assert c @ (M @ c) == pytest.approx(2.5 ** 2 * 1.0, rel=1e-13)

    def test_stiffness_rows_sum_to_zero(self):
        m = generate_structured(3)
        K = assemble_stiffness(m)
        np.testing.assert_allclose(np.asarray(K.sum(axis=1)).ravel(), 0.0, atol=1e-13)

    def test_symmetry_and_definiteness(self):
        m = generate_structured(4)
        M = assemble_mass(m)
        K = assemble_stiffness(m)
        assert abs(M - M.T).max() <= 1e-14 * abs(M).max()
        assert abs(K - K.T).max() <= 1e-14 * abs(K).max()
        x = RNG.normal(size=m.n_vertices)
        assert x @ (M @ x) > 0
        space = FemSpace(m)
        y = RNG.normal(size=len(space.free))
        assert y @ (space.stiffness_ff @ y) > 0

    def test_stiffness_action_against_quadrature_oracle(self):
        # K applied to the interpolant of x, tested entry-wise against
        # integral(grad x . grad phi_i) evaluated by quadrature
        m = generate_structured(2)
        space = FemSpace(m)
        w = m.vertices[:, 0]
        action = space.stiffness @ w
        gx = lambda x, y: (np.ones_like(x), np.zeros_like(x))
        contrib = np.einsum("q,tb,t->tb", space.rule.weights, space.grads[:, :, 0], space.area)
        oracle = np.zeros(m.n_vertices)
        np.add.at(oracle, m.triangles.ravel(), contrib.ravel())
        np.testing.assert_allclose(action, oracle, atol=1e-13)


class TestLoads:
    def test_constant_load_partitions_area(self):
        m = generate_structured(3)
        space = FemSpace(m)
        b = space.assemble_load(lambda x, y: np.ones_like(x))
        assert b.sum() == pytest.approx(1.0, rel=1e-13)
        # each entry is the vertex patch area / 3
        patch = np.zeros(m.n_vertices)
        np.add.at(patch, m.triangles.ravel(), np.repeat(m.areas, 3))
        np.testing.assert_allclose(b, patch / 3.0, rtol=1e-13)

    def test_linear_load_exact_with_degree_two(self):
        m = generate_structured(2)
        space = FemSpace(m, quadrature_rule(2))
        g = lambda x, y: 3.0 * x - y + 0.5
        b2 = space.assemble_load(g)
        b5 = FemSpace(m, quadrature_rule(5)).assemble_load(g)
        np.testing.assert_allclose(b2, b5, rtol=1e-12, atol=1e-15)

    def test_gaussian_load_against_refinement_oracle(self):
        # isolate the rule error: assemble the same loads with every element
        # split into 4 subtriangles (doubling the quadrature resolution)
        from wavest.manufactured import gaussian_pulse
        sol = gaussian_pulse()
        g = lambda x, y: sol.u(0.0, x, y)
        m = generate_structured(96)
        space = FemSpace(m, quadrature_rule(5))
        b = space.assemble_load(g)
        oracle = subdivided_load_oracle(space, g, levels=1)
        oracle2 = subdivided_load_oracle(space, g, levels=2)
        assert np.abs(oracle - oracle2).max() < 1e-11  # oracle has converged
        assert np.abs(b - oracle).max() < 1e-10


class TestSolver:
    def test_diagonal_system_one_iteration(self):
        import scipy.sparse as sp
        d = np.array([1.0, 2.0, 4.0])
        A = sp.diags(d).tocsr()
        counter = SolveCounter()
        x = solve_spd(A, np.array([1.0, 1.0, 1.0]), counter=counter)
        np.testing.assert_allclose(x, 1.0 / d, rtol=1e-12)
        assert counter.iterations == 1

    def test_mass_identity(self):
        m = generate_structured(4)
        M = assemble_mass(m)
        y = RNG.normal(size=m.n_vertices)
        x = solve_spd(M, M @ y, tol=1e-12)
        np.testing.assert_allclose(x, y, atol=1e-9)

    def test_against_dense_oracle(self):
        R = RNG.normal(size=(5, 5))
        A = R @ R.T + 5 * np.eye(5)
        import scipy.sparse as sp
        b = RNG.normal(size=5)
        x = solve_spd(sp.csr_matrix(A), b, tol=1e-14)
        np.testing.assert_allclose(x, np.linalg.solve(A, b), atol=1e-10)

    def test_nonconvergence_reports_residual(self):
        m = generate_structured(8)
        K = FemSpace(m).stiffness_ff
        with pytest.raises(SolverError) as err:
            solve_spd(K, np.ones(K.shape[0]), tol=1e-15, max_iter=2)
        assert err.value.residual > 0

    def test_zero_rhs(self):
        m = generate_structured(2)
        M = assemble_mass(m)
        np.testing.assert_array_equal(solve_spd(M, np.zeros(m.n_vertices)), 0.0)

    def test_start_meeting_the_tolerance_returns_a_copy_after_no_iteration(self):
        K = FemSpace(generate_structured(6)).stiffness_ff
        b = RNG.normal(size=K.shape[0])
        x0 = solve_spd(K, b, tol=1e-13)
        before = x0.copy()
        counter = SolveCounter()
        x = solve_spd(K, b, tol=1e-10, counter=counter, x0=x0)
        assert counter.solves == 1 and counter.iterations == 0
        np.testing.assert_array_equal(x, x0)
        assert x is not x0
        x[0] += 1.0
        np.testing.assert_array_equal(x0, before)

    def test_nonzero_start_reaches_the_tolerance(self):
        import scipy.sparse as sp
        R = RNG.normal(size=(30, 30))
        A = sp.csr_matrix(R @ R.T + 30 * np.eye(30))
        b = RNG.normal(size=30)
        x0 = RNG.normal(size=30)
        counter = SolveCounter()
        x = solve_spd(A, b, tol=1e-10, counter=counter, x0=x0)
        assert counter.iterations > 0
        assert np.linalg.norm(b - A @ x) <= 1e-10 * np.linalg.norm(b)


class TestProjections:
    def test_l2_projection_of_constant(self):
        space = FemSpace(generate_structured(3))
        f = space.l2_project(lambda x, y: np.full_like(x, 4.0))
        np.testing.assert_allclose(f, 4.0, atol=1e-9)

    def test_l2_projection_idempotent_on_p1(self):
        m = generate_structured(3)
        space = FemSpace(m)
        nodal = RNG.normal(size=m.n_vertices)

        def p1_fun(x, y):
            # evaluate the P1 interpolant by matching quadrature points to
            # a fine nodal interpolation; exact only via nodal coincidence,
            # so project twice instead
            return np.zeros_like(x)

        first = space.l2_project(lambda x, y: np.sin(x) * y)
        second_vals = solve_spd(space.mass, space.mass @ first, tol=1e-12)
        np.testing.assert_allclose(second_vals, first, atol=1e-9)

    def test_l2_projection_rate_h2(self):
        g = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
        errs = []
        for n in (4, 8, 16):
            space = FemSpace(generate_structured(n), tol=1e-12)
            p = space.l2_project(g)
            err_sq = space.assemble_load(lambda x, y: (g(x, y)) ** 2).sum() \
                - float(p @ (space.mass @ p))
            errs.append(np.sqrt(max(err_sq, 0.0)))
        rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(np.abs(rates - 2.0) < 0.2)

    def test_h1_projection_idempotent_on_p1(self):
        m = generate_structured(4)
        space = FemSpace(m, tol=1e-12)
        w = RNG.normal(size=len(space.free))
        full = np.zeros(m.n_vertices)
        full[space.free] = w
        grads = space.element_gradients(full)

        def grad_fun(x, y):
            # constant per triangle; x, y come in as (nt, q) arrays in
            # triangle-major order, so broadcasting the per-triangle gradient
            # is exact
            gx = np.broadcast_to(grads[:, [0]], x.shape)
            gy = np.broadcast_to(grads[:, [1]], x.shape)
            return gx, gy

        p = space.h1_project(grad_fun)
        np.testing.assert_allclose(p, w, atol=1e-9)

    def test_h1_projection_stability_and_rate(self):
        g_grad = lambda x, y: (np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
                               np.pi * np.sin(np.pi * x) * np.cos(np.pi * y))
        exact_seminorm = np.pi / np.sqrt(2.0)  # |sin(pi x) sin(pi y)|_H1
        errs = []
        for n in (4, 8, 16):
            space = FemSpace(generate_structured(n), tol=1e-12)
            p = space.h1_project(g_grad)
            proj_norm = space.h1_seminorm(space.full(p))
            assert proj_norm <= exact_seminorm + 1e-10
            # |g - Pi g|_H1^2 = |g|^2 - |Pi g|^2 by Galerkin orthogonality
            errs.append(np.sqrt(max(exact_seminorm ** 2 - proj_norm ** 2, 0.0)))
        rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(np.abs(rates - 1.0) < 0.1)

    def test_galerkin_orthogonality(self):
        space = FemSpace(generate_structured(4), tol=1e-13)
        g_grad = lambda x, y: (np.exp(x) * y, np.exp(x) * y * y / 2.0)
        p = space.h1_project(g_grad)
        # residual of the defining system in the free-vertex basis
        gx_gy = g_grad(space.quad_xy[:, :, 0], space.quad_xy[:, :, 1])
        contrib = np.einsum("tq,q,tb,t->tb", gx_gy[0], space.rule.weights,
                            space.grads[:, :, 0], space.area) \
            + np.einsum("tq,q,tb,t->tb", gx_gy[1], space.rule.weights,
                        space.grads[:, :, 1], space.area)
        rhs = np.zeros(space.mesh.n_vertices)
        np.add.at(rhs, space.mesh.triangles.ravel(), contrib.ravel())
        resid = space.stiffness_ff @ p - rhs[space.free]
        assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(rhs[space.free])


class TestDiscreteLaplacian:
    def test_zero_maps_to_zero(self):
        space = FemSpace(generate_structured(3))
        z = space.apply_discrete_laplacian(np.zeros(len(space.free)))
        np.testing.assert_array_equal(z, 0.0)

    def test_defining_residual(self):
        space = FemSpace(generate_structured(5), tol=1e-12)
        w = RNG.normal(size=len(space.free))
        z = space.apply_discrete_laplacian(w)
        r = space.mass_ff @ z - space.stiffness_ff @ w
        assert np.linalg.norm(r) <= 1e-10 * np.linalg.norm(space.stiffness_ff @ w)

    def test_pairing_recovers_h1_seminorm(self):
        space = FemSpace(generate_structured(6), tol=1e-12)
        g_grad = lambda x, y: (np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
                               np.pi * np.sin(np.pi * x) * np.cos(np.pi * y))
        w = space.h1_project(g_grad)
        z = space.apply_discrete_laplacian(w)
        pairing = space.full(z) @ (space.mass @ space.full(w))
        assert pairing == pytest.approx(space.h1_seminorm(space.full(w)) ** 2, rel=1e-9)

    def test_counts_one_solve(self):
        space = FemSpace(generate_structured(3))
        counter = SolveCounter()
        space.apply_discrete_laplacian(RNG.normal(size=len(space.free)), counter=counter)
        assert counter.solves == 1


class TestNorms:
    def test_constant_l2(self):
        space = FemSpace(generate_structured(3))
        c = np.full(space.mesh.n_vertices, -2.0)
        assert space.l2_norm(c) == pytest.approx(2.0, rel=1e-13)
        assert space.h1_seminorm(c) == pytest.approx(0.0, abs=1e-7)

    def test_interpolant_norm_against_refinement_oracle(self):
        g = lambda x, y: x * (1 - x) * y * (1 - y)
        m = generate_structured(6)
        space = FemSpace(m)
        vals = g(m.vertices[:, 0], m.vertices[:, 1])
        norm = space.l2_norm(vals)
        # the interpolant is piecewise P1; its square is integrated exactly
        # by any rule of degree >= 2, so compare degree-2 and degree-5 rules
        oracle_sq = 0.0
        for rule_deg in (2, 5):
            sp2 = FemSpace(m, quadrature_rule(rule_deg))
            w = vals[m.triangles]
            at_q = np.einsum("tb,qb->tq", w, sp2.rule.points)
            val = np.einsum("tq,q,t->", at_q ** 2, sp2.rule.weights, sp2.area)
            if rule_deg == 2:
                oracle_sq = val
            else:
                assert val == pytest.approx(oracle_sq, rel=1e-13)
        assert norm == pytest.approx(np.sqrt(oracle_sq), rel=1e-12)

    def test_energy_norm_pair(self):
        # the true-error quadrature against a zero exact solution is the
        # discrete pair norm sqrt(||v||_L2^2 + |u|_H1^2)
        from wavest.harness import ErrorWork, wave_energy_error_at
        from wavest.newmark import WaveState
        space = FemSpace(generate_structured(4))
        v = RNG.normal(size=len(space.free))
        u = RNG.normal(size=len(space.free))
        zero = np.zeros(space.quad_xy.shape[:2])
        exact = lambda t: (zero, (zero, zero))
        state = WaveState(t=0.0, u=u, v=v, f_h=np.zeros(space.mesh.n_vertices),
                          a=np.zeros(len(space.free)))
        expected = np.hypot(space.l2_norm(space.full(v)), space.h1_seminorm(space.full(u)))
        err = wave_energy_error_at(space, state, exact, ErrorWork(space))
        assert err == pytest.approx(expected, rel=1e-12)

    def test_zero_iff_zero(self):
        space = FemSpace(generate_structured(2))
        assert space.l2_norm(np.zeros(space.mesh.n_vertices)) == 0.0
        assert space.l2_norm(space.full(np.ones(len(space.free)))) > 0


class TestField:
    """Free-vertex coefficient arrays and their scatter to all vertices (``FemSpace.full``)."""

    def test_h10_scatters_zeros(self):
        space = FemSpace(generate_structured(3))
        w = np.arange(len(space.free), dtype=float)
        full = space.full(w)
        assert full.shape == (space.mesh.n_vertices,)
        assert np.all(full[space.mesh.boundary_vertex] == 0.0)
        np.testing.assert_array_equal(full[space.free], w)

    def test_length_validation(self):
        space = FemSpace(generate_structured(3))
        with pytest.raises(ValueError):
            space.full(np.zeros(3))
        with pytest.raises(ValueError):
            space.full(np.zeros(space.mesh.n_vertices))
