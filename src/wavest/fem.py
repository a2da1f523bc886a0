"""P1 finite element kernels on triangulations.

Every P1 matrix is assembled on one pattern per mesh, the vertex
adjacency of ``EdgeSlots`` (the mass matrix with per-triangle weights, so
M and the space estimator's h_K^2-weighted M_h are one assembly, and the
stiffness from the mesh's hat gradients).  Homogeneous Dirichlet
conditions are imposed by restriction to the free (non-boundary) vertices,
which keeps every system symmetric positive definite.  ``FemSpace``
bundles a mesh with its operators, quadrature geometry and the index
bookkeeping the time steppers and estimators need.  It keeps the
full-vertex mass matrix (loads, L2 projections and norms of all-vertex
functions) and M_h on one ``indices``/``indptr`` pair but only the
free-vertex stiffness; the free-vertex mass and stiffness share another
pair, as does the kept step matrix M_ff + s K_ff (``shifted_system``).  A
P1 function is a plain coefficient array, on the free vertices (zero
trace) or on all of them; ``FemSpace.full`` scatters the first kind into
the second.

Every space integrates with one rule, ``QUAD_RULE``, the 7-point rule
exact to degree 5 (its points and weights are read-only arrays that every
space shares as ``FemSpace.rule``).  Per-triangle integrals reach the
vertices through one ``np.bincount`` over the triangles' vertex indices
(``FemSpace.scatter``).  Work at the quadrature points runs over
``FemSpace.blocks``, consecutive runs of at most ``QUAD_BLOCK`` triangles,
so a block's (triangles, points) arrays stay in cache; an integrand
``g(x, y, out=None)`` is therefore called once per block and must be
pointwise.  The space stores no quadrature points: ``block_points`` derives
a block's x and y at each call, by a gather of its corner coordinates and
matrix products, into two block-sized buffers the space owns, so the arrays
it returns hold until its next call.  Loads and projections pass an
integrand ``out=block_work(b)``, four more such buffers, allocated at the
first call, in which it may compute its values (or which it may ignore), so
no block's evaluation allocates.  A load vector is,
per block, one matmul of the integrand's quadrature values with the rule's
weights times its barycentric points, then scaled by the triangle areas
(``load_rows``); the H1_0 projection's right-hand side is, per block, the
rule's weighted sum of each gradient component times area times the hat
gradients (``gradient_rows``).

Linear systems are solved with preconditioned conjugate gradients, from
zero or from a given start vector, updating the iterate, the residual and
the search direction in place; pass a ``SolveCounter`` to account for
solver work (the cost comparison of the two time estimators rests on these
counters).  ``FemSpace`` forms every preconditioner its solves and the
stepper's use: the kept Jacobi (``jacobi``) of M and M_ff for the mass
solves; for the stiffness and shifted systems, on spaces with at least
``MULTIGRID_MIN_FREE`` free vertices, a smoothed-aggregation V-cycle
(``Multigrid``, built from the stiffness matrix at the first solve that
needs it, run in work vectors allocated once per hierarchy), and on smaller
spaces the Jacobi of kept diagonals of M_ff and K_ff.  ``solve_spd`` takes
its preconditioner from the caller and extracts no diagonal.

``scipy.sparse`` is imported by ``sparse()`` at the first sparse build
(assembly, a V-cycle hierarchy, the estimators' operators), the package's
only import of scipy.  The scalar model builds no sparse matrix, so its runs
load numpy and nothing heavier, and importing this module (or looking up
``FemSpace`` on a module that imported it) loads no scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np

QUAD_BLOCK = 4096            # triangles per block of the quadrature-point work
MULTIGRID_MIN_FREE = 10_000  # free vertices from which the stiffness and shifted solves use Multigrid
MULTIGRID_COARSEST = 300     # unknowns at or below which aggregation stops (dense inverse)


def sparse():
    """The ``scipy.sparse`` module, imported at the first call (the package's one scipy import)."""
    import scipy.sparse

    return scipy.sparse


class SolverError(RuntimeError):
    """Conjugate gradients failed to reach the requested tolerance."""

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


@dataclass
class SolveCounter:
    """Counts SPD solves and CG iterations attributed to one code path."""

    solves: int = 0
    iterations: int = 0

    def record(self, iters):
        self.solves += 1
        self.iterations += iters


def _degree_five_rule():
    """The 7-point degree-5 rule: barycentric points (7, 3), weights (7,) summing to 1."""
    s15 = np.sqrt(15.0)
    b1 = (6.0 + s15) / 21.0
    b2 = (6.0 - s15) / 21.0
    w1 = (155.0 + s15) / 1200.0
    w2 = (155.0 - s15) / 1200.0
    pts = [[1 / 3.0, 1 / 3.0, 1 / 3.0]]
    wts = [9.0 / 40.0]
    for b, w in ((b1, w1), (b2, w2)):
        a = 1.0 - 2.0 * b
        pts += [[a, b, b], [b, a, b], [b, b, a]]
        wts += [w, w, w]
    rule = SimpleNamespace(points=np.asarray(pts), weights=np.asarray(wts))
    rule.points.flags.writeable = rule.weights.flags.writeable = False   # shared by every space
    return rule


# the quadrature rule of every space (``FemSpace.rule``)
QUAD_RULE = _degree_five_rule()


class EdgeSlots:
    """The CSR pattern of a mesh's vertex adjacency and the place of every P1 entry in it.

    Each edge of the mesh's edge table is one edge of the pattern, boundary
    edges included.  Row r of the pattern (int32 ``indptr`` and ``indices``)
    holds r's neighbours below r, r itself and its neighbours above r,
    ascending.  ``side_edges`` maps each side k nt + t (side k of triangle t)
    to its edge; ``edge_slots`` (2, edges) holds each edge's entry in the row
    of its lower and of its higher endpoint, and ``diagonal`` each vertex's
    entry.

    A matrix on the pattern (``matrix``) is one data array written by two
    ``np.bincount``s: an edge's entries sum the local entries of its sides
    (at most two terms, which commute) and a vertex's diagonal entry its
    local diagonal entries in triangle order.  Zeros stay stored, so every
    matrix of one mesh has the pattern.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        nv = mesh.n_vertices
        sides, (lo, hi) = mesh.edge_sides, mesh.edge_vertices.T
        edge = np.arange(len(sides))
        self.side_edges = np.empty(3 * mesh.n_triangles, dtype=np.intp)
        self.side_edges[sides[:, 0]] = edge
        paired = sides[:, 1] >= 0
        self.side_edges[sides[paired, 1]] = edge[paired]
        below, above = np.bincount(hi, minlength=nv), np.bincount(lo, minlength=nv)
        self.indptr = np.zeros(nv + 1, dtype=np.int32)
        np.cumsum(below + above + 1, out=self.indptr[1:])
        self.diagonal = self.indptr[:-1] + below
        # the edges come sorted by (lo, hi), so those of one lower endpoint
        # are consecutive; a stable sort by the higher endpoint makes those
        # of one higher endpoint consecutive too, their lower ones ascending
        first_above = np.cumsum(above) - above
        first_below = np.cumsum(below) - below
        self.edge_slots = np.empty((2, len(lo)), dtype=np.intp)
        self.edge_slots[0] = (self.diagonal + 1 - first_above)[lo] + edge
        by_hi = np.argsort(hi, kind="stable")
        self.edge_slots[1, by_hi] = (self.indptr[:-1] - first_below)[hi[by_hi]] + edge
        self.indices = np.empty(self.indptr[-1], dtype=np.int32)
        self.indices[self.diagonal] = np.arange(nv)
        self.indices[self.edge_slots[0]] = hi
        self.indices[self.edge_slots[1]] = lo

    def matrix(self, sides, diagonal):
        """The matrix of local side entries (3 nt, numbered as the sides) and diagonal ones (nt, 3)."""
        mesh = self.mesh
        data = np.empty(len(self.indices))
        data[self.edge_slots] = np.bincount(self.side_edges, weights=sides,
                                            minlength=self.edge_slots.shape[1])
        data[self.diagonal] = np.bincount(mesh.triangles.ravel(), weights=diagonal.ravel(),
                                          minlength=mesh.n_vertices)
        return _on_pattern(data, self.indices, self.indptr)

    def mass(self, weights=1.0):
        """The mass matrix, entries integral(w phi_i phi_j).

        ``weights`` holds w, a positive constant per triangle (or one for
        all); the P1 local mass is (w area / 12)(1 1^T + I).
        """
        scale = weights * self.mesh.areas / 12.0
        return self.matrix(np.tile(scale, 3), np.repeat(2.0 * scale, 3))

    def stiffness(self):
        """The stiffness matrix, entries integral(grad phi_i . grad phi_j).

        A local entry is (g_i,x g_j,x) area + (g_i,y g_j,y) area for the
        mesh's hat gradients g, rounded as the einsum of the whole local
        matrices rounds it.
        """
        area, grads = self.mesh.areas[:, None], self.mesh.grads
        gx, gy = grads[:, :, 0], grads[:, :, 1]
        sides = gx * gx[:, [1, 2, 0]] * area + gy * gy[:, [1, 2, 0]] * area
        return self.matrix(sides.T.ravel(), gx * gx * area + gy * gy * area)

    def restrict(self, kept):
        """The pattern's entries in the rows and columns the vertex mask ``kept`` keeps.

        Returns the mask over the pattern's entries and the index arrays of
        the restricted pattern, on the kept vertices numbered in order.
        """
        entries = np.repeat(kept, np.diff(self.indptr)) & kept[self.indices]
        number = (np.cumsum(kept) - 1).astype(np.int32)
        before = np.zeros(len(entries) + 1, dtype=np.int32)
        np.cumsum(entries, out=before[1:])
        return entries, number[self.indices[entries]], before[self.indptr[np.r_[kept, True]]]


def _on_pattern(data, indices, indptr):
    """The square CSR matrix of ``data`` that holds the given index arrays themselves."""
    n = len(indptr) - 1
    matrix = sparse().csr_matrix((data, indices, indptr), shape=(n, n))
    # the constructor keeps views of them: matrices on one pattern share the objects
    matrix.indices, matrix.indptr = indices, indptr
    return matrix


def jacobi(diagonal) -> Callable:
    """The Jacobi preconditioner r -> r / d of a matrix's diagonal d, checked positive."""
    if np.any(diagonal <= 0):
        raise SolverError("matrix diagonal is not positive", residual=np.inf)
    return lambda r: r / diagonal


def solve_spd(matrix, rhs, precond: Callable, tol=1e-10, max_iter=None,
              counter: Optional[SolveCounter] = None, x0=None):
    """Preconditioned conjugate gradients for SPD systems.

    ``precond`` maps a residual r to B r for a symmetric positive definite B
    (a ``Multigrid.preconditioner``, or the ``jacobi`` of a kept diagonal).
    Starts from ``x0`` (zero by default; the caller's array is not changed)
    and stops when the residual satisfies
    ||b - A x|| <= tol * ||b|| (``tol`` a finite positive number and
    ``max_iter`` at least 1, ValueError otherwise), after 0 iterations if
    ``x0`` already does.  Deterministic for fixed inputs; raises SolverError
    with the last residual if max_iter is exhausted, or if a search
    direction p has p . A p <= 0 (the matrix or the preconditioner is not
    positive definite).
    """
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be a finite positive number, got {tol!r}")
    if max_iter is not None and max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")
    b = np.asarray(rhs, dtype=float)
    n = len(b)
    if max_iter is None:
        max_iter = max(10 * n, 200)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        if counter is not None:
            counter.record(0)
        return np.zeros(n)
    if x0 is None:
        x = np.zeros(n)
        r = b.copy()
    else:
        x = np.array(x0, dtype=float)
        r = b - matrix @ x
        if np.linalg.norm(r) <= tol * bnorm:
            if counter is not None:
                counter.record(0)
            return x
    z = precond(r)
    p = z.copy()
    work = np.empty(n)   # alpha p, before it is added to x
    rz = float(r @ z)
    for it in range(1, max_iter + 1):
        q = matrix @ p
        pq = float(p @ q)
        if not pq > 0.0:
            raise SolverError(f"CG breakdown at iteration {it}: p . A p = {pq:.3e} is not "
                              "positive", residual=np.sqrt(r @ r) / bnorm)
        alpha = rz / pq
        # in place, each the same rounded operations as x + alpha p, r - alpha q,
        # ||r|| and z + beta p
        x += np.multiply(p, alpha, out=work)
        r -= np.multiply(q, alpha, out=q)
        res = np.sqrt(r @ r)
        if res <= tol * bnorm:
            if counter is not None:
                counter.record(it)
            return x
        z = precond(r)
        rz_new = float(r @ z)
        p *= rz_new / rz
        p += z
        rz = rz_new
    raise SolverError(
        f"CG did not reach tol={tol:g} within {max_iter} iterations "
        f"(relative residual {res / bnorm:.3e})",
        residual=res / bnorm,
    )


def _jacobi_weights(matrix):
    """Damped-Jacobi weights omega / diag with omega = 4 / (3 rho).

    rho is the Gershgorin bound of D^-1 A (largest absolute row sum over the
    diagonal), so omega times every eigenvalue of D^-1 A lies in (0, 4/3].
    """
    d = matrix.diagonal()
    if np.any(d <= 0):
        raise SolverError("matrix diagonal is not positive", residual=np.inf)
    rho = (np.add.reduceat(np.abs(matrix.data), matrix.indptr[:-1]) / d).max()
    return (4.0 / (3.0 * rho)) / d


class Multigrid:
    """Smoothed-aggregation V-cycle over the free vertices of one space.

    Aggregates are the vertices in one square bin of side ``side`` (twice the
    mesh size); each coarser level doubles the side and bins the previous
    level's aggregate centroids, until at most ``MULTIGRID_COARSEST``
    unknowns are left.  The prolongator of a level is the aggregate indicator
    smoothed by one damped-Jacobi step of the stiffness matrix's Galerkin
    operator on that level, P = (I - omega D^-1 K) T, so the hierarchy does
    not depend on tau.

    ``preconditioner(matrix, key)`` applies one V-cycle of ``matrix``: one
    damped-Jacobi sweep before the coarse correction and one after, the
    Galerkin operators P^T A P on the coarse levels and a dense inverse on
    the coarsest.  The cycle is symmetric positive definite, a valid CG
    preconditioner.  The coarse operators of one matrix are kept, named by
    ``key``, and rebuilt when the key changes, the old ones dropped first
    (``FemSpace.shifted_system`` drops its V-cycle, which holds them, before
    it asks for the next, so this holds through the space too); the build
    leaves those of the stiffness matrix, under the key 'stiffness'.  The
    restrictions P^T are stored as CSR, and every vector of a cycle but its
    output, which is new at each call, lives in work vectors allocated once
    per hierarchy.
    """

    def __init__(self, stiffness, xy, side):
        sp = sparse()
        # the kernel of scipy's CSR product, bound once (see _matvec)
        self._csr_matvec = sp._sparsetools.csr_matvec
        self.prolongators = []
        levels = []
        a = stiffness
        while a.shape[0] > MULTIGRID_COARSEST:
            ids = np.floor(xy / side).astype(np.int64)
            ids -= ids.min(axis=0)
            _, agg = np.unique(ids[:, 0] * (ids[:, 1].max() + 1) + ids[:, 1],
                               return_inverse=True)
            size = np.bincount(agg)
            n = a.shape[0]
            tent = sp.csr_matrix((np.ones(n), (np.arange(n), agg)), shape=(n, len(size)))
            weights = _jacobi_weights(a)
            prolongator = tent - sp.diags(weights) @ (a @ tent)
            self.prolongators.append(prolongator)
            levels.append((a, weights))
            a = (prolongator.T @ (a @ prolongator)).tocsr()
            xy = np.column_stack([np.bincount(agg, weights=c) / size for c in xy.T])
            side *= 2.0
        self._restrictions = [p.T.tocsr() for p in self.prolongators]
        self._key = "stiffness"
        self._levels = levels
        self._coarsest = np.linalg.inv(a.toarray())
        # per level: a matvec's result, and from level 1 on the residual r and
        # the correction x (the coarsest level's x is its solve's result)
        sizes = [p.shape[0] for p in self.prolongators] + [a.shape[0]]
        self._tmp = [np.empty(n) for n in sizes[:-1]]
        self._r = [np.empty(n) for n in sizes[1:]]
        self._x = [np.empty(n) for n in sizes[1:]]

    def _matvec(self, matrix, x, out):
        """``matrix @ x`` of a CSR matrix into ``out``, by the kernel scipy's product runs.

        scipy's product has no ``out``, so this calls its kernel
        (``scipy.sparse._sparsetools.csr_matvec``) on a zeroed ``out``, as the
        product does on a new array: the values are bit-equal to ``matrix @ x``.
        """
        out.fill(0.0)
        self._csr_matvec(matrix.shape[0], matrix.shape[1], matrix.indptr, matrix.indices,
                         matrix.data, x, out)
        return out

    def _galerkin(self, matrix):
        # the old operators go first, so they are never alive beside the new ones
        self._key = self._levels = self._coarsest = None
        levels = []
        a = matrix
        for prolongator in self.prolongators:
            levels.append((a, _jacobi_weights(a)))
            a = (prolongator.T @ (a @ prolongator)).tocsr()
        self._levels = levels
        self._coarsest = np.linalg.inv(a.toarray())

    def preconditioner(self, matrix, key) -> Callable:
        """The V-cycle r -> B r of ``matrix``; ``key`` names its values ('stiffness', or a scale)."""
        if key != self._key:
            self._galerkin(matrix)
            self._key = key
        levels, coarsest, prolongators = self._levels, self._coarsest, self.prolongators
        restrictions, tmps, r_work, x_work = self._restrictions, self._tmp, self._r, self._x
        matvec = self._matvec

        def vcycle(r):
            rs = [r, *r_work]
            xs = [np.empty(len(r)), *x_work]   # the output B r is a new array
            for i, ((a, weights), restriction) in enumerate(zip(levels, restrictions)):
                x, tmp = xs[i], tmps[i]
                np.multiply(weights, rs[i], out=x)
                np.subtract(rs[i], matvec(a, x, tmp), out=tmp)
                matvec(restriction, tmp, rs[i + 1])
            e = np.matmul(coarsest, rs[-1], out=xs[-1])
            for i in reversed(range(len(levels))):
                (a, weights), x, tmp = levels[i], xs[i], tmps[i]
                x += matvec(prolongators[i], e, tmp)
                np.subtract(rs[i], matvec(a, x, tmp), out=tmp)
                tmp *= weights
                x += tmp
                e = x
            return e
        return vcycle


class FemSpace:
    """A mesh with its assembled P1 operators and quadrature geometry."""

    def __init__(self, mesh, tol=1e-10):
        self.mesh = mesh
        self.rule = QUAD_RULE
        self.tol = tol
        self.free = mesh.free_vertices
        # M, M_h (the space estimator's h_K^2-weighted mass) and a transient
        # full stiffness on one pattern, then M_ff and K_ff on its free part;
        # the slots go once the matrices are built
        slots = EdgeSlots(mesh)
        entries, *pattern = slots.restrict(~mesh.boundary_vertex)
        self.stiffness_ff = _on_pattern(slots.stiffness().data[entries], *pattern)
        self.mass = slots.mass()
        self.mass_ff = _on_pattern(self.mass.data[entries], *pattern)
        self.h_mass = slots.mass(mesh.h_K ** 2)
        del slots, entries
        self.grads, self.area = mesh.grads, mesh.areas
        # the preconditioners of the mass solves (loads' L2 projections, the
        # initial acceleration, the auxiliary solves)
        mass_ff_diagonal = self.mass_ff.diagonal()
        self.mass_jacobi = jacobi(self.mass.diagonal())
        self.mass_ff_jacobi = jacobi(mass_ff_diagonal)
        # the diagonals of M_ff and K_ff, from which small spaces form Jacobi
        self._diagonals = None
        if len(self.free) < MULTIGRID_MIN_FREE:
            self._diagonals = mass_ff_diagonal, self.stiffness_ff.diagonal()
        self._shifted = self._shifted_precond = self._scale = None
        nt, q = mesh.n_triangles, len(self.rule.points)
        self.blocks = [slice(lo, min(lo + QUAD_BLOCK, nt)) for lo in range(0, nt, QUAD_BLOCK)]
        # block_points' inputs and buffers: the vertex coordinates one axis at
        # a time, factor i (column i of the barycentric points as row i of a
        # zero (3, q) matrix), and a block's corners, one product and the points
        self._coords = np.ascontiguousarray(mesh.vertices.T)
        self._factors = np.zeros((3, 3, q))
        for i, column in enumerate(self.rule.points.T):
            self._factors[i, i] = column
        rows = min(QUAD_BLOCK, nt)
        self._corners = np.empty((rows, 3))
        self._product = np.empty((rows, q))
        self._points = np.empty((2, rows, q))
        self._work = None   # block_work's four arrays, allocated at its first call

    @cached_property
    def multigrid(self) -> Optional[Multigrid]:
        """The free-vertex V-cycle hierarchy, built at first use; None below MULTIGRID_MIN_FREE."""
        if len(self.free) < MULTIGRID_MIN_FREE:
            return None
        return Multigrid(self.stiffness_ff, self.mesh.vertices[self.free], 2.0 * self.mesh.h)

    def shifted_system(self, scale):
        """The matrix M_ff + scale K_ff and ``solve_spd``'s precond for it.

        One such matrix is kept, on the index arrays of M_ff and K_ff; a
        change of ``scale`` rewrites its values in place and forms its
        preconditioner: the V-cycle keyed by ``scale`` (which keeps its own
        coarse operators when ``h1_project`` re-keys the hierarchy), or
        below MULTIGRID_MIN_FREE the Jacobi of dM + scale dK, the entries'
        own arithmetic, so it divides by the bits of the matrix's diagonal.
        """
        if self._shifted is None:
            self._shifted = _on_pattern(self.mass_ff.data.copy(), self.mass_ff.indices,
                                        self.mass_ff.indptr)
        if scale != self._scale:
            # the old preconditioner goes first, as a V-cycle holds its coarse
            # operators, and the old scale too, as a failed build leaves no scale current
            self._shifted_precond = self._scale = None
            np.add(self.mass_ff.data, scale * self.stiffness_ff.data, out=self._shifted.data)
            multigrid = self.multigrid
            if multigrid is None:
                mass_diagonal, stiffness_diagonal = self._diagonals
                self._shifted_precond = jacobi(mass_diagonal + scale * stiffness_diagonal)
            else:
                self._shifted_precond = multigrid.preconditioner(self._shifted, scale)
            self._scale = scale
        return self._shifted, self._shifted_precond

    # -- integration ------------------------------------------------------

    def block_points(self, b):
        """x and y of the quadrature points of the triangles in the block b, (rows, q) each.

        Per axis, the block's corner coordinates c (gathered) times each of
        the three factors, one matrix product each, summed in order: a factor
        has one non-zero row, so every product entry is the rounded c_i p_i
        plus exact zeros, whatever order or fused multiply-adds the product
        uses, and a point is c_0 p_0 + c_1 p_1 + c_2 p_2 summed left to
        right.  The two arrays are buffers of the space: they hold this
        block's points until the next call.
        """
        rows = b.stop - b.start
        corners, product = self._corners[:rows], self._product[:rows]
        points = self._points[:, :rows]
        first, *rest = self._factors
        for coord, out in zip(self._coords, points):
            # mode="clip": the mesh's indices are in range, and a raising take buffers its output
            np.take(coord, self.mesh.triangles[b], out=corners, mode="clip")
            np.matmul(corners, first, out=out)
            for factor in rest:
                out += np.matmul(corners, factor, out=product)
        return points[0], points[1]

    def block_work(self, b):
        """Four work arrays of the shape of the block b's points, (rows, q) each.

        An integrand's ``out``: it may compute its values in them.  They are
        buffers of the space, allocated at the first call (after the
        constructor's assembly peak), separate arrays of at most
        ``QUAD_BLOCK`` rows each, so they hold until the next block's
        evaluation.
        """
        if self._work is None:
            self._work = tuple(np.empty(self._product.shape) for _ in range(4))
        rows = b.stop - b.start
        return tuple(work[:rows] for work in self._work)

    def assemble_load(self, g: Callable) -> np.ndarray:
        """Load vector b_i ~ integral(g phi_i) over all vertices, by the space's rule.

        The pointwise g(x, y, out=None) is called once per block of
        triangles, with ``out=block_work(b)``.
        """
        per_tri = np.empty((self.mesh.n_triangles, 3))
        for b in self.blocks:
            self.load_rows(g(*self.block_points(b), out=self.block_work(b)), b, out=per_tri[b])
        return self.scatter(per_tri)

    def load_rows(self, vals, b, out):
        """integral(g phi) over each triangle of the block b from g at its points, into ``out``."""
        rule = self.rule
        np.matmul(np.asarray(vals, dtype=float), rule.weights[:, None] * rule.points, out=out)
        out *= self.area[b, None]

    def gradient_rows(self, gx, gy, b, out):
        """integral(grad g . grad phi) over each triangle of the block b, into ``out``, (len, 3)."""
        w, area, grads = self.rule.weights, self.area[b], self.grads[b]
        np.multiply(((np.asarray(gx, dtype=float) @ w) * area)[:, None], grads[:, :, 0], out=out)
        out += ((np.asarray(gy, dtype=float) @ w) * area)[:, None] * grads[:, :, 1]

    def scatter(self, contrib) -> np.ndarray:
        """Sum per-triangle vertex contributions (nt, 3) into an all-vertex vector."""
        return np.bincount(self.mesh.triangles.ravel(), weights=contrib.ravel(),
                           minlength=self.mesh.n_vertices)

    def full(self, values) -> np.ndarray:
        """All-vertex coefficients of free-vertex values, zero on the boundary."""
        out = np.zeros(self.mesh.n_vertices)
        out[self.free] = values
        return out

    # -- projections and operators ----------------------------------------

    def l2_project(self, g: Callable) -> np.ndarray:
        """L2 projection onto the full P1 space (no boundary condition), on all vertices."""
        b = self.assemble_load(g)
        return solve_spd(self.mass, b, tol=self.tol, precond=self.mass_jacobi)

    def h1_project(self, grad_g: Callable) -> np.ndarray:
        """H1_0-orthogonal projection from the gradient of the target, on the free vertices.

        grad_g(x, y, out=None) returns the two gradient components pointwise
        and is called once per block of triangles, with
        ``out=block_work(b)``; the projection solves the free-vertex
        stiffness system with rhs integral(grad g . grad phi_i).
        """
        contrib = np.empty((self.mesh.n_triangles, 3))
        for b in self.blocks:
            grad = grad_g(*self.block_points(b), out=self.block_work(b))
            self.gradient_rows(*grad, b, out=contrib[b])
        rhs = self.scatter(contrib)
        multigrid = self.multigrid
        if multigrid is None:
            precond = jacobi(self._diagonals[1])
        else:
            precond = multigrid.preconditioner(self.stiffness_ff, "stiffness")
        return solve_spd(self.stiffness_ff, rhs[self.free], tol=self.tol, precond=precond)

    def apply_discrete_laplacian(self, w, counter=None) -> np.ndarray:
        """z in V_h with (z, phi) = (grad w, grad phi) for all phi in V_h; free vertices."""
        return solve_spd(self.mass_ff, self.stiffness_ff @ w, tol=self.tol, counter=counter,
                         precond=self.mass_ff_jacobi)

    # -- norms --------------------------------------------------------------

    def l2_norm(self, values) -> float:
        """L2 norm of a P1 function given by its all-vertex coefficients."""
        v = np.asarray(values, dtype=float)
        return float(np.sqrt(max(v @ (self.mass @ v), 0.0)))

    def h1_seminorm(self, values) -> float:
        """H1 seminorm of a P1 function given by its free-vertex coefficients (zero trace)."""
        v = np.asarray(values, dtype=float)
        return float(np.sqrt(max(v @ (self.stiffness_ff @ v), 0.0)))
