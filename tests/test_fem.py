"""FEM kernels: assembly against hand integration, projections, solver, norms."""

import numpy as np
import pytest

from wavest import fem
from wavest.fem import (MULTIGRID_MIN_FREE, EdgeSlots, FemSpace, Multigrid, SolveCounter,
                        SolverError, jacobi, solve_spd)
from wavest.manufactured import gaussian_pulse
from wavest.mesh import Mesh, format_mesh, generate_structured, import_mesh

from oracles import (allocating_cg, allocating_vcycle, einsum_quad_xy, element_gradients,
                     element_l2_sq, incidence_mass, jittered_crisscross, one_shot_gradient_load,
                     one_shot_load, quad_points, sliced_free, triplet_stiffness)

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
        assert fem.QUAD_RULE.weights.sum() == pytest.approx(1.0, abs=1e-14)
        assert fem.QUAD_RULE.points.shape == (7, 3)
        np.testing.assert_allclose(fem.QUAD_RULE.points.sum(axis=1), 1.0, rtol=0, atol=1e-15)

    def test_one_read_only_rule_shared_by_every_space(self):
        spaces = FemSpace(single_right_triangle()), FemSpace(generate_structured(2))
        assert all(space.rule is fem.QUAD_RULE for space in spaces)
        for values in (fem.QUAD_RULE.points, fem.QUAD_RULE.weights):
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 0.0

    @pytest.mark.parametrize("degree", [5])
    def test_monomial_exactness(self, degree):
        # integrate x^p y^q over the reference triangle; exact value is
        # p! q! / (p + q + 2)!
        from math import factorial
        space = FemSpace(single_right_triangle())
        for p in range(degree + 1):
            for q in range(degree + 1 - p):
                exact = factorial(p) * factorial(q) / factorial(p + q + 2)
                got = space.assemble_load(lambda x, y, out=None: x ** p * y ** q).sum()
                assert got == pytest.approx(exact, rel=1e-13), (p, q)

    @pytest.mark.parametrize("mesh", [
        generate_structured(3, "diagonal"), generate_structured(14, "crisscross"),
        generate_structured(56, "diagonal"), jittered_crisscross(14, seed=1),
        jittered_crisscross(56, seed=7)],
        ids=["diagonal-3", "crisscross-14", "diagonal-56", "jittered-14", "jittered-56"])
    def test_points_bit_equal_to_einsum(self, mesh):
        space = FemSpace(mesh)
        np.testing.assert_array_equal(np.stack(quad_points(space), axis=-1), einsum_quad_xy(space))
        # a block's x and y values are contiguous (rows, q) arrays
        for b in space.blocks:
            for axis in space.block_points(b):
                assert axis.shape == (b.stop - b.start, len(space.rule.points))
                assert axis.flags.c_contiguous


class TestAssembly:
    def test_local_mass_hand_integrated(self):
        M = EdgeSlots(single_right_triangle()).mass().toarray()
        expected = np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]]) / 24.0
        np.testing.assert_allclose(M, expected, atol=1e-15)

    def test_local_stiffness_hand_integrated(self):
        K = EdgeSlots(single_right_triangle()).stiffness().toarray()
        expected = 0.5 * np.array([[2, -1, -1], [-1, 1, 0], [-1, 0, 1]])
        np.testing.assert_allclose(K, expected, atol=1e-15)

    def test_mass_total_is_domain_area(self):
        m = generate_structured(4, "crisscross")
        assert EdgeSlots(m).mass().sum() == pytest.approx(1.0, abs=1e-12)

    def test_constant_field_mass_energy(self):
        m = generate_structured(3)
        M = EdgeSlots(m).mass()
        c = 2.5 * np.ones(m.n_vertices)
        assert c @ (M @ c) == pytest.approx(2.5 ** 2 * 1.0, rel=1e-13)

    def test_weighted_mass_against_element_integrals(self):
        # per-triangle weights scale each triangle's local mass: the quadratic
        # form is the weighted sum of the exact element integrals of r^2
        m = jittered_crisscross(6)
        space = FemSpace(m)
        w = RNG.uniform(0.1, 10.0, size=m.n_triangles)
        slots = EdgeSlots(m)
        M_w, M = slots.mass(w), slots.mass()
        np.testing.assert_array_equal(M_w.indptr, M.indptr)
        np.testing.assert_array_equal(M_w.indices, M.indices)
        assert M_w.has_sorted_indices
        for _ in range(3):
            r = RNG.normal(size=m.n_vertices)
            assert r @ (M_w @ r) == pytest.approx(np.sum(w * element_l2_sq(space, r)), rel=1e-13)

    def test_space_takes_the_meshs_hat_gradients(self):
        # computed once per mesh: the stiffness assembly and the space read one array
        m = generate_structured(3, "crisscross")
        space = FemSpace(m)
        assert space.grads is m.grads and space.area is m.areas
        np.testing.assert_allclose(m.grads.sum(axis=1), 0.0, atol=1e-13)

    def test_stiffness_rows_sum_to_zero(self):
        m = generate_structured(3)
        K = EdgeSlots(m).stiffness()
        np.testing.assert_allclose(np.asarray(K.sum(axis=1)).ravel(), 0.0, atol=1e-13)

    def test_symmetry_and_definiteness(self):
        m = generate_structured(4)
        M = EdgeSlots(m).mass()
        K = EdgeSlots(m).stiffness()
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
        action = EdgeSlots(m).stiffness() @ w
        gx = lambda x, y: (np.ones_like(x), np.zeros_like(x))
        contrib = np.einsum("q,tb,t->tb", space.rule.weights, space.grads[:, :, 0], space.area)
        oracle = np.zeros(m.n_vertices)
        np.add.at(oracle, m.triangles.ravel(), contrib.ravel())
        np.testing.assert_allclose(action, oracle, atol=1e-13)


SET_UP_MESHES = {
    **{f"{p}-{n}": (lambda n=n, p=p: generate_structured(n, p))
       for p in ("diagonal", "crisscross") for n in (1, 2, 5, 20)},
    "jittered-6": lambda: jittered_crisscross(6),
    "imported-5": lambda: import_mesh(format_mesh(jittered_crisscross(5, seed=2))),
}


class TestEdgeSlots:
    """The P1 matrices on one edge-slot pattern, against incidence, triplet and slicing forms."""

    @staticmethod
    def assert_same_pattern(got, want):
        assert got.shape == want.shape
        np.testing.assert_array_equal(got.indptr, want.indptr)
        np.testing.assert_array_equal(got.indices, want.indices)

    @pytest.mark.parametrize("make", SET_UP_MESHES.values(), ids=SET_UP_MESHES.keys())
    def test_space_matrices_against_the_former_assembly(self, make):
        m = make()
        space = FemSpace(m)
        mass, stiffness = incidence_mass(m), triplet_stiffness(m)
        # M, M_ff and M_h: the same bits, an off-diagonal entry being a sum
        # of two terms and a diagonal one summed in triangle order by both
        for got, want in ((space.mass, mass), (space.mass_ff, sliced_free(mass, m)),
                          (space.h_mass, incidence_mass(m, m.h_K ** 2))):
            self.assert_same_pattern(got, want)
            np.testing.assert_array_equal(got.data, want.data)
        # K_ff: the same off-diagonal bits; its diagonal is summed in
        # triangle order, not in the order the triplets' sort leaves
        got, want = space.stiffness_ff, sliced_free(stiffness, m)
        self.assert_same_pattern(got, want)
        off = got.indices != np.repeat(np.arange(got.shape[0]), np.diff(got.indptr))
        np.testing.assert_array_equal(got.data[off], want.data[off])
        np.testing.assert_array_max_ulp(got.data, want.data, maxulp=2)
        # one pattern: the zeros of the stiffness (crisscross cell sides) stay stored
        assert space.stiffness_ff.nnz == space.mass_ff.nnz
        assert space.h_mass.indices is space.mass.indices
        assert space.h_mass.indptr is space.mass.indptr
        assert space.stiffness_ff.indices is space.mass_ff.indices
        assert space.stiffness_ff.indptr is space.mass_ff.indptr

    def test_crisscross_keeps_the_stiffness_zeros(self):
        space = FemSpace(generate_structured(5, "crisscross"))
        assert np.count_nonzero(space.stiffness_ff.data == 0.0) > 0
        assert space.stiffness_ff.nnz == space.mass_ff.nnz

    @pytest.mark.parametrize("n, pattern", [(1, "crisscross"), (2, "diagonal")])
    def test_one_free_vertex(self, n, pattern):
        m = generate_structured(n, pattern)
        space = FemSpace(m)
        assert len(space.free) == 1
        for got, want in ((space.mass_ff, sliced_free(incidence_mass(m), m)),
                          (space.stiffness_ff, sliced_free(triplet_stiffness(m), m))):
            self.assert_same_pattern(got, want)
            np.testing.assert_array_equal(got.data, want.data)

    @pytest.mark.parametrize("make", SET_UP_MESHES.values(), ids=SET_UP_MESHES.keys())
    def test_pattern_rows(self, make):
        # each row: its lower neighbours, the vertex, its higher neighbours, ascending
        m = make()
        slots = EdgeSlots(m)
        rows = np.repeat(np.arange(m.n_vertices), np.diff(slots.indptr))
        np.testing.assert_array_equal(slots.indices[slots.diagonal], np.arange(m.n_vertices))
        assert np.all(np.diff(slots.indices)[np.diff(rows) == 0] > 0)
        lo, hi = rows[slots.edge_slots], slots.indices[slots.edge_slots]
        np.testing.assert_array_equal(lo[0], hi[1])
        np.testing.assert_array_equal(hi[0], lo[1])
        assert np.all(lo[0] < hi[0])
        # every entry is an edge slot or a diagonal slot, once
        taken = np.concatenate([slots.edge_slots.ravel(), slots.diagonal])
        np.testing.assert_array_equal(np.sort(taken), np.arange(len(slots.indices)))


class TestLoads:
    def test_constant_load_partitions_area(self):
        m = generate_structured(3)
        space = FemSpace(m)
        b = space.assemble_load(lambda x, y, out=None: np.ones_like(x))
        assert b.sum() == pytest.approx(1.0, rel=1e-13)
        # each entry is the vertex patch area / 3
        patch = np.zeros(m.n_vertices)
        np.add.at(patch, m.triangles.ravel(), np.repeat(m.areas, 3))
        np.testing.assert_allclose(b, patch / 3.0, rtol=1e-13)

    def test_gaussian_load_against_refinement_oracle(self):
        # isolate the rule error: assemble the same loads with every element
        # split into 4 subtriangles (doubling the quadrature resolution)
        from wavest.manufactured import gaussian_pulse
        sol = gaussian_pulse()
        g = lambda x, y, out=None: sol.u(0.0, x, y, out=out)
        m = generate_structured(96)
        space = FemSpace(m)
        b = space.assemble_load(g)
        oracle = subdivided_load_oracle(space, g, levels=1)
        oracle2 = subdivided_load_oracle(space, g, levels=2)
        assert np.abs(oracle - oracle2).max() < 1e-11  # oracle has converged
        assert np.abs(b - oracle).max() < 1e-10


class TestBlocks:
    """Quadrature-point work by blocks of at most QUAD_BLOCK triangles, bit-equal to one shot."""

    PULSE = gaussian_pulse()
    LOADS = [lambda x, y, out=None: TestBlocks.PULSE.f(0.37, x, y, out=out),
             lambda x, y, out=None: np.sin(3.0 * x) * y]

    def test_blocks_cover_the_triangles_in_order(self, blocked_mesh):
        space = FemSpace(blocked_mesh)
        bounds = [(b.start, b.stop) for b in space.blocks]
        assert bounds[0][0] == 0 and bounds[-1][1] == blocked_mesh.n_triangles
        assert all(stop == start for (_, stop), (start, _) in zip(bounds, bounds[1:]))
        assert all(0 < stop - start <= fem.QUAD_BLOCK for start, stop in bounds)

    @pytest.mark.parametrize("g", LOADS, ids=["pulse-forcing", "smooth"])
    def test_load_bit_equal_to_one_shot(self, blocked_mesh, g):
        space = FemSpace(blocked_mesh)
        np.testing.assert_array_equal(space.assemble_load(g), one_shot_load(space, g))

    def test_h1_right_hand_side_bit_equal_to_one_shot(self, blocked_mesh, monkeypatch):
        space = FemSpace(blocked_mesh)
        rhs = []
        solve = fem.solve_spd
        monkeypatch.setattr(fem, "solve_spd", lambda m, b, **k: rhs.append(b) or solve(m, b, **k))
        for grad_g in (lambda x, y, out=None: self.PULSE.grad_u(0.2, x, y, out=out),
                       lambda x, y, out=None: self.PULSE.grad_dudt(0.2, x, y, out=out)):
            space.h1_project(grad_g)
            oracle = one_shot_gradient_load(space, grad_g)[space.free]
            np.testing.assert_array_equal(rhs.pop(), oracle)

    def test_load_passes_g_at_most_a_block(self):
        # a mesh just over one block of the unpatched constant: g sees every
        # triangle's points once, in order, never more than QUAD_BLOCK triangles at a time
        n = int(np.ceil(np.sqrt(fem.QUAD_BLOCK / 4.0))) + 1
        space = FemSpace(generate_structured(n, "crisscross"))
        assert space.mesh.n_triangles > fem.QUAD_BLOCK
        seen = []
        # the points live in the space's buffers until the next block, so g keeps copies
        space.assemble_load(lambda x, y, out=None: seen.append(x.copy()) or np.ones_like(x))
        assert len(seen) == 2 and all(len(x) <= fem.QUAD_BLOCK for x in seen)
        np.testing.assert_array_equal(np.concatenate(seen), quad_points(space)[0])


class TestSolver:
    def test_diagonal_system_one_iteration(self):
        import scipy.sparse as sp
        d = np.array([1.0, 2.0, 4.0])
        A = sp.diags(d).tocsr()
        counter = SolveCounter()
        x = solve_spd(A, np.array([1.0, 1.0, 1.0]), precond=jacobi(A.diagonal()), counter=counter)
        np.testing.assert_allclose(x, 1.0 / d, rtol=1e-12)
        assert counter.iterations == 1

    def test_mass_identity(self):
        m = generate_structured(4)
        M = EdgeSlots(m).mass()
        y = RNG.normal(size=m.n_vertices)
        x = solve_spd(M, M @ y, precond=jacobi(M.diagonal()), tol=1e-12)
        np.testing.assert_allclose(x, y, atol=1e-9)

    def test_against_dense_oracle(self):
        R = RNG.normal(size=(5, 5))
        A = R @ R.T + 5 * np.eye(5)
        import scipy.sparse as sp
        b = RNG.normal(size=5)
        x = solve_spd(sp.csr_matrix(A), b, precond=jacobi(np.diag(A)), tol=1e-14)
        np.testing.assert_allclose(x, np.linalg.solve(A, b), atol=1e-10)

    def test_nonconvergence_reports_residual(self):
        m = generate_structured(8)
        K = FemSpace(m).stiffness_ff
        with pytest.raises(SolverError) as err:
            solve_spd(K, np.ones(K.shape[0]), precond=jacobi(K.diagonal()), tol=1e-15, max_iter=2)
        assert err.value.residual > 0

    @pytest.mark.parametrize("tol", [-1.0, 0.0, np.nan, np.inf])
    def test_rejects_a_tolerance_that_is_not_finite_positive(self, tol):
        import scipy.sparse as sp
        A = sp.identity(3, format="csr")
        with pytest.raises(ValueError, match="^tol must be a finite positive number, got "):
            solve_spd(A, np.ones(3), precond=jacobi(A.diagonal()), tol=tol)

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_rejects_fewer_than_one_iteration(self, max_iter):
        import scipy.sparse as sp
        A = 2 * sp.identity(3, format="csr")
        with pytest.raises(ValueError, match="^max_iter must be at least 1, got "):
            solve_spd(A, np.ones(3), precond=jacobi(A.diagonal()), max_iter=max_iter)

    def test_stops_on_an_exactly_zero_residual(self):
        # tol * ||b|| underflows to 0: the exact residual 0 still meets it
        import scipy.sparse as sp
        counter = SolveCounter()
        A = sp.identity(3, format="csr")
        x = solve_spd(A, np.ones(3), precond=jacobi(A.diagonal()), tol=5e-324, counter=counter)
        np.testing.assert_array_equal(x, 1.0)
        assert counter.iterations == 1

    def test_indefinite_matrix_raises_solver_error(self):
        # positive diagonal, but p . A p = -2 on the first search direction
        import scipy.sparse as sp
        A = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(SolverError, match="p . A p = -2.000e[+]00 is not positive"):
            solve_spd(A, np.array([1.0, -1.0]), precond=jacobi(A.diagonal()))

    def test_kept_jacobi_skips_the_extraction(self):
        # the space's kept Jacobi preconditioners make solve_spd read no
        # diagonal; the iterates are those of the Jacobi of the extracted one
        class NoDiagonal:
            def __init__(self, matrix):
                self.matrix = matrix

            def __matmul__(self, x):
                return self.matrix @ x

            def diagonal(self):
                raise AssertionError("solve_spd extracted the diagonal")

        space = FemSpace(generate_structured(6))
        for M, kept in ((space.mass_ff, space.mass_ff_jacobi), (space.mass, space.mass_jacobi)):
            b = RNG.normal(size=M.shape[0])
            counters = [SolveCounter(), SolveCounter()]
            extracted = solve_spd(M, b, precond=jacobi(M.diagonal()), counter=counters[0])
            kept_x = solve_spd(NoDiagonal(M), b, precond=kept, counter=counters[1])
            assert extracted.tobytes() == kept_x.tobytes()
            assert counters[0] == counters[1]

    def test_non_positive_diagonal_rejected(self):
        # by a Jacobi preconditioner where it is formed, from a matrix's
        # diagonal or a kept one, and by the V-cycle's smoother weights
        import scipy.sparse as sp

        A = sp.csr_matrix(np.array([[1.0, 0.5], [0.5, 0.0]]))
        with pytest.raises(SolverError, match="matrix diagonal is not positive"):
            solve_spd(A, np.ones(2), precond=jacobi(A.diagonal()))
        with pytest.raises(SolverError, match="matrix diagonal is not positive"):
            jacobi(np.array([1.0, -2.0]))
        space = FemSpace(generate_structured(20, "crisscross"))
        multigrid = Multigrid(space.stiffness_ff, space.mesh.vertices[space.free],
                              2.0 * space.mesh.h)
        with pytest.raises(SolverError, match="matrix diagonal is not positive"):
            multigrid.preconditioner(-space.stiffness_ff, "negated")

    def test_zero_rhs(self):
        m = generate_structured(2)
        M = EdgeSlots(m).mass()
        np.testing.assert_array_equal(
            solve_spd(M, np.zeros(m.n_vertices), precond=jacobi(M.diagonal())), 0.0)

    def test_start_meeting_the_tolerance_returns_a_copy_after_no_iteration(self):
        K = FemSpace(generate_structured(6)).stiffness_ff
        b = RNG.normal(size=K.shape[0])
        x0 = solve_spd(K, b, precond=jacobi(K.diagonal()), tol=1e-13)
        before = x0.copy()
        counter = SolveCounter()
        x = solve_spd(K, b, precond=jacobi(K.diagonal()), tol=1e-10, counter=counter, x0=x0)
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
        x = solve_spd(A, b, precond=jacobi(A.diagonal()), tol=1e-10, counter=counter, x0=x0)
        assert counter.iterations > 0
        assert np.linalg.norm(b - A @ x) <= 1e-10 * np.linalg.norm(b)


def assert_cg_bit_equal_to_the_allocating_loop(matrix, precond, start, tol=1e-10):
    """``solve_spd`` from zero or a random start against ``oracles.allocating_cg``.

    The x and the iteration count must be the former loop's, bit for bit,
    and the caller's start is left as it was.
    """
    n = matrix.shape[0]
    b = RNG.normal(size=n)
    x0 = None if start == "zero" else RNG.normal(size=n)
    x0_before = None if x0 is None else x0.copy()
    counter = SolveCounter()
    x = solve_spd(matrix, b, precond=precond, tol=tol, counter=counter, x0=x0)
    want, iterations = allocating_cg(matrix, b, precond, tol=tol, x0=x0)
    assert counter.iterations == iterations > 0
    assert x.tobytes() == want.tobytes()
    if x0 is not None:
        np.testing.assert_array_equal(x0, x0_before)


class TestInPlaceCg:
    """solve_spd updates x, r and p in place; the values are the allocating loop's."""

    @pytest.mark.parametrize("start", ["zero", "x0"])
    @pytest.mark.parametrize("matrix", ["mass", "mass_ff"])
    def test_jacobi_bit_equal_to_the_allocating_loop(self, matrix, start):
        space = FemSpace(jittered_crisscross(6))
        precond = space.mass_jacobi if matrix == "mass" else space.mass_ff_jacobi
        assert_cg_bit_equal_to_the_allocating_loop(getattr(space, matrix), precond, start)


@pytest.fixture(scope="module", params=["structured", "jittered"])
def large_space(request):
    """Crisscross n=160 (50,881 free vertices), as is or with each interior vertex moved <= 0.1 h."""
    mesh = generate_structured(160, "crisscross")
    if request.param == "jittered":
        rng = np.random.default_rng(1)
        verts = mesh.vertices.copy()
        free = ~mesh.boundary_vertex
        radius = 0.1 * mesh.h * np.sqrt(rng.uniform(size=free.sum()))
        angle = rng.uniform(0.0, 2.0 * np.pi, size=free.sum())
        verts[free] += radius[:, None] * np.column_stack([np.cos(angle), np.sin(angle)])
        mesh = Mesh(vertices=verts, triangles=mesh.triangles, boundary_vertex=mesh.boundary_vertex)
    return FemSpace(mesh)


def step_matrix(space, tau):
    return (space.mass_ff + (tau * tau / 4.0) * space.stiffness_ff).tocsr()


class TestMultigrid:
    def test_none_below_the_threshold(self):
        # the n=100 diagonal mesh of the cost benchmark stays on Jacobi
        space = FemSpace(generate_structured(100))
        assert len(space.free) < MULTIGRID_MIN_FREE
        assert space.multigrid is None
        system, precond = space.shifted_system(1.0 / 1024)
        r = RNG.normal(size=system.shape[0])
        assert precond(r).tobytes() == (r / system.diagonal()).tobytes()

    def test_a_failed_rebuild_leaves_no_stale_system(self):
        # a scale whose preconditioner cannot be formed leaves the kept
        # matrix rewritten: the scale before it must not be taken as current
        space = FemSpace(generate_structured(6))
        space.shifted_system(0.25)
        with pytest.raises(SolverError, match="matrix diagonal is not positive"):
            space.shifted_system(-1.0)
        system, _ = space.shifted_system(0.25)
        np.testing.assert_array_equal(system.data,
                                      space.mass_ff.data + 0.25 * space.stiffness_ff.data)

    @pytest.mark.parametrize("key", ["stiffness", 1.0 / 16])
    def test_vcycle_symmetric_and_positive(self, large_space, key):
        matrix = large_space.stiffness_ff if key == "stiffness" else step_matrix(large_space, key)
        vcycle = large_space.multigrid.preconditioner(matrix, key)
        for _ in range(3):
            x, y = RNG.normal(size=(2, matrix.shape[0]))
            bx, by = vcycle(x), vcycle(y)
            assert abs(bx @ y - x @ by) <= 1e-12 * np.linalg.norm(bx) * np.linalg.norm(y)
            assert x @ bx > 0 and y @ by > 0

    @pytest.mark.parametrize("key", ["stiffness", 1.0 / 16])
    def test_agrees_with_jacobi_in_at_most_40_iterations(self, large_space, key):
        matrix = large_space.stiffness_ff if key == "stiffness" else step_matrix(large_space, key)
        b = RNG.normal(size=matrix.shape[0])
        counter = SolveCounter()
        x = solve_spd(matrix, b, counter=counter,
                      precond=large_space.multigrid.preconditioner(matrix, key))
        by_jacobi = SolveCounter()
        x_jacobi = solve_spd(matrix, b, precond=jacobi(matrix.diagonal()), counter=by_jacobi)
        assert counter.iterations <= 40 < by_jacobi.iterations
        assert np.linalg.norm(b - matrix @ x) <= 1e-10 * np.linalg.norm(b)
        assert np.linalg.norm(x - x_jacobi) <= 1e-8 * np.linalg.norm(x_jacobi)

    @pytest.mark.parametrize("key", ["stiffness", 1.0 / 16])
    def test_vcycle_bit_equal_to_the_allocating_cycle(self, large_space, key):
        # the work vectors change where the cycle computes, not what: each
        # output is new, and the caller's residual is left as it was
        matrix = large_space.stiffness_ff if key == "stiffness" else step_matrix(large_space, key)
        vcycle = large_space.multigrid.preconditioner(matrix, key)
        oracle = allocating_vcycle(large_space.multigrid.prolongators, matrix)
        x, y = RNG.normal(size=(2, matrix.shape[0]))
        x_before = x.copy()
        bx, by = vcycle(x), vcycle(y)
        np.testing.assert_array_equal(x, x_before)
        np.testing.assert_array_equal(bx, oracle(x))
        np.testing.assert_array_equal(by, oracle(y))

    @pytest.mark.parametrize("start", ["zero", "x0"])
    @pytest.mark.parametrize("key", ["stiffness", 1.0 / 16])
    def test_cg_bit_equal_to_the_allocating_loop(self, large_space, key, start):
        # the V-cycle preconditioned solves of h1_project and the step, in place
        assert len(large_space.free) >= MULTIGRID_MIN_FREE
        matrix = large_space.stiffness_ff if key == "stiffness" else step_matrix(large_space, key)
        vcycle = large_space.multigrid.preconditioner(matrix, key)
        assert_cg_bit_equal_to_the_allocating_loop(matrix, vcycle, start)

    def test_refresh_after_a_tau_change_equals_a_fresh_build(self, large_space):
        # the space refreshes its shifted matrix in place when tau changes
        space = large_space
        system, before = space.shifted_system((1.0 / 16) ** 2 / 4.0)
        b = RNG.normal(size=system.shape[0])
        tau = 1.0 / 160
        refreshed_system, refreshed = space.shifted_system(tau * tau / 4.0)
        assert refreshed_system is system
        np.testing.assert_array_equal(system.data, step_matrix(space, tau).data)
        fresh = Multigrid(space.stiffness_ff, space.mesh.vertices[space.free],
                          2.0 * space.mesh.h).preconditioner(system, tau)
        assert not np.array_equal(before(b), refreshed(b))
        np.testing.assert_array_equal(solve_spd(system, b, precond=refreshed),
                                      solve_spd(system, b, precond=fresh))

    def test_old_coarse_operators_freed_before_a_rebuild(self, monkeypatch):
        # a new key drops the old Galerkin operators before the new ones are
        # built, so the two sets are never alive together
        import weakref

        from wavest import fem

        space = FemSpace(generate_structured(40, "crisscross"))
        multigrid = Multigrid(space.stiffness_ff, space.mesh.vertices[space.free],
                              2.0 * space.mesh.h)
        assert len(multigrid._levels) >= 2
        old = weakref.ref(multigrid._levels[1][0])
        alive_during_build = []
        jacobi_weights = fem._jacobi_weights

        def spy(matrix):
            alive_during_build.append(old() is not None)
            return jacobi_weights(matrix)

        monkeypatch.setattr(fem, "_jacobi_weights", spy)
        multigrid.preconditioner(step_matrix(space, 1.0 / 16), 1.0 / 16)
        assert alive_during_build == [False] * len(multigrid.prolongators)
        assert old() is None

    def test_old_coarse_operators_freed_before_a_rebuild_through_the_space(self, monkeypatch):
        # the space keeps the V-cycle of its last scale, which holds that
        # scale's operators: a rebuild after the first drops it before the
        # next scale's operators are built
        import weakref

        monkeypatch.setattr(fem, "MULTIGRID_MIN_FREE", 0)
        space = FemSpace(generate_structured(40, "crisscross"))
        space.shifted_system(1.0 / 64)
        assert len(space.multigrid._levels) >= 2
        old = weakref.ref(space.multigrid._levels[1][0])
        alive_during_build = []
        jacobi_weights = fem._jacobi_weights

        def spy(matrix):
            alive_during_build.append(old() is not None)
            return jacobi_weights(matrix)

        monkeypatch.setattr(fem, "_jacobi_weights", spy)
        space.shifted_system(1.0 / 256)
        assert alive_during_build == [False] * len(space.multigrid.prolongators)
        assert old() is None


class TestProjections:
    def test_l2_projection_of_constant(self):
        space = FemSpace(generate_structured(3))
        f = space.l2_project(lambda x, y, out=None: np.full_like(x, 4.0))
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

        first = space.l2_project(lambda x, y, out=None: np.sin(x) * y)
        second_vals = solve_spd(space.mass, space.mass @ first,
                                precond=jacobi(space.mass.diagonal()), tol=1e-12)
        np.testing.assert_allclose(second_vals, first, atol=1e-9)

    def test_l2_projection_rate_h2(self):
        g = lambda x, y, out=None: np.sin(np.pi * x) * np.sin(np.pi * y)
        errs = []
        for n in (4, 8, 16):
            space = FemSpace(generate_structured(n), tol=1e-12)
            p = space.l2_project(g)
            err_sq = space.assemble_load(lambda x, y, out=None: (g(x, y)) ** 2).sum() \
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
        grads = element_gradients(space, full)

        def grad_fun(x, y, out=None):
            # constant per triangle; x, y come in as (nt, q) arrays in
            # triangle-major order, so broadcasting the per-triangle gradient
            # is exact
            gx = np.broadcast_to(grads[:, [0]], x.shape)
            gy = np.broadcast_to(grads[:, [1]], x.shape)
            return gx, gy

        p = space.h1_project(grad_fun)
        np.testing.assert_allclose(p, w, atol=1e-9)

    def test_h1_projection_stability_and_rate(self):
        g_grad = lambda x, y, out=None: (np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
                                         np.pi * np.sin(np.pi * x) * np.cos(np.pi * y))
        exact_seminorm = np.pi / np.sqrt(2.0)  # |sin(pi x) sin(pi y)|_H1
        errs = []
        for n in (4, 8, 16):
            space = FemSpace(generate_structured(n), tol=1e-12)
            p = space.h1_project(g_grad)
            proj_norm = space.h1_seminorm(p)
            assert proj_norm <= exact_seminorm + 1e-10
            # |g - Pi g|_H1^2 = |g|^2 - |Pi g|^2 by Galerkin orthogonality
            errs.append(np.sqrt(max(exact_seminorm ** 2 - proj_norm ** 2, 0.0)))
        rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(np.abs(rates - 1.0) < 0.1)

    def test_galerkin_orthogonality(self):
        space = FemSpace(generate_structured(4), tol=1e-13)
        g_grad = lambda x, y, out=None: (np.exp(x) * y, np.exp(x) * y * y / 2.0)
        p = space.h1_project(g_grad)
        # residual of the defining system in the free-vertex basis
        gx_gy = g_grad(*quad_points(space))
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
        g_grad = lambda x, y, out=None: (np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
                                         np.pi * np.sin(np.pi * x) * np.cos(np.pi * y))
        w = space.h1_project(g_grad)
        z = space.apply_discrete_laplacian(w)
        pairing = space.full(z) @ (space.mass @ space.full(w))
        assert pairing == pytest.approx(space.h1_seminorm(w) ** 2, rel=1e-9)

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
        # a constant has no zero trace: its seminorm is the all-vertex form c . (K c)
        c_h1 = np.sqrt(max(c @ (EdgeSlots(space.mesh).stiffness() @ c), 0.0))
        assert c_h1 == pytest.approx(0.0, abs=1e-7)

    def test_interpolant_norm_against_refinement_oracle(self):
        g = lambda x, y: x * (1 - x) * y * (1 - y)
        m = generate_structured(6)
        space = FemSpace(m)
        vals = g(m.vertices[:, 0], m.vertices[:, 1])
        norm = space.l2_norm(vals)
        # the interpolant is piecewise P1; its square is integrated exactly
        # by the degree-5 rule, so compare it with the exact element integrals
        oracle_sq = element_l2_sq(space, vals).sum()
        at_q = np.einsum("tb,qb->tq", vals[m.triangles], space.rule.points)
        val = np.einsum("tq,q,t->", at_q ** 2, space.rule.weights, space.area)
        assert val == pytest.approx(oracle_sq, rel=1e-13)
        assert norm == pytest.approx(np.sqrt(oracle_sq), rel=1e-12)

    def test_energy_norm_pair(self):
        # the true-error quadrature against a zero exact solution is the
        # discrete pair norm sqrt(||v||_L2^2 + |u|_H1^2)
        from wavest.harness import wave_energy_error_at
        from wavest.newmark import WaveState
        space = FemSpace(generate_structured(4))
        v = RNG.normal(size=len(space.free))
        u = RNG.normal(size=len(space.free))
        # the quadrature computes in the derivatives' arrays: each call ignores out and
        # hands out new ones
        def zero_derivatives(t, x, y, out=None):
            return np.zeros(x.shape), (np.zeros(x.shape), np.zeros(x.shape))
        state = WaveState(t=0.0, u=u, v=v, f_h=np.zeros(space.mesh.n_vertices),
                          a=np.zeros(len(space.free)))
        expected = np.hypot(space.l2_norm(space.full(v)), space.h1_seminorm(u))
        err = wave_energy_error_at(space, state, zero_derivatives)
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
