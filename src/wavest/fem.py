"""P1 finite element kernels on triangulations.

``assemble_mass``/``assemble_stiffness`` assemble over the full vertex set
as scipy CSR; homogeneous Dirichlet conditions are imposed by restriction to
the free (non-boundary) vertices, which keeps every system symmetric
positive definite.  ``FemSpace`` bundles a mesh with its operators,
quadrature geometry and the index bookkeeping the time steppers and
estimators need.  It keeps the full-vertex mass matrix (loads, L2
projections and norms of all-vertex functions) but only the free-vertex
stiffness; the free-vertex mass and stiffness share one ``indices``/
``indptr`` pair, which the Newmark step matrix shares too.  A P1 function
is a plain coefficient array, on the free vertices (zero trace) or on all
of them; ``FemSpace.full`` scatters the first kind into the second.

Per-triangle integrals reach the vertices through one ``np.bincount`` over
the triangles' vertex indices.  Work at the quadrature points runs over
``FemSpace.blocks``, consecutive runs of at most ``QUAD_BLOCK`` triangles, so
a block's (triangles, points) arrays stay in cache; an integrand ``g(x, y)``
is therefore called once per block and must be pointwise.  A load vector is,
per block, one matmul of the integrand's quadrature values with the rule's
weights times its barycentric points, then scaled by the triangle areas; the
H1_0 projection's right-hand side is, per block, the rule's weighted sum of
each gradient component times area times the hat gradients.

Linear systems are solved with preconditioned conjugate gradients, from
zero or from a given start vector; pass a ``SolveCounter`` to account for
solver work (the cost comparison of the two time estimators rests on these
counters).  The preconditioner is the diagonal (Jacobi), except for the
free-vertex stiffness and Newmark step systems of spaces with at least
``MULTIGRID_MIN_FREE`` free vertices: those take a smoothed-aggregation
V-cycle (``Multigrid``), whose prolongators a space builds from its
stiffness matrix at the first solve that needs them.  The V-cycle runs in
work vectors allocated once per hierarchy.

``scipy.sparse`` is imported by ``sparse()`` at the first sparse build
(assembly, a V-cycle hierarchy, the estimators' operators), the package's
only import of scipy.  The scalar model builds no sparse matrix, so its runs
load numpy and nothing heavier, and importing this module (or looking up
``FemSpace`` on a module that imported it) loads no scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

QUAD_BLOCK = 4096            # triangles per block of the quadrature-point work
MULTIGRID_MIN_FREE = 10_000  # free vertices from which the stiffness and step solves use Multigrid
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


@dataclass(frozen=True)
class QuadratureRule:
    """Barycentric points and weights on the reference triangle; weights sum to 1."""

    points: np.ndarray   # (q, 3)
    weights: np.ndarray  # (q,)
    degree: int

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        wts = np.asarray(self.weights, dtype=float)
        if pts.shape != (len(wts), 3):
            raise ValueError("points must be (q, 3) barycentric coordinates")
        if not np.isclose(wts.sum(), 1.0, atol=1e-14):
            raise ValueError("quadrature weights must sum to 1")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)


def quadrature_rule(degree) -> QuadratureRule:
    """Centroid (degree 1), edge midpoints (degree 2) or the 7-point degree-5 rule."""
    if degree <= 1:
        return QuadratureRule(np.array([[1, 1, 1]]) / 3.0, np.array([1.0]), 1)
    if degree <= 2:
        pts = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
        return QuadratureRule(pts, np.full(3, 1.0 / 3.0), 2)
    if degree <= 5:
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
        return QuadratureRule(np.asarray(pts), np.asarray(wts), 5)
    raise ValueError("available rules: degree 1, 2 and 5")


def _triangle_geometry(mesh):
    """Per-triangle P1 gradient coefficients and areas.

    grads[t, i] is the constant gradient of the hat function of local vertex i
    on triangle t.
    """
    verts = mesh.vertices
    tris = mesh.triangles
    p = verts[tris]                        # (nt, 3, 2)
    e0 = p[:, 2] - p[:, 1]
    e1 = p[:, 0] - p[:, 2]
    e2 = p[:, 1] - p[:, 0]
    area = mesh.areas
    grads = np.empty((len(tris), 3, 2))
    # rotate edge vectors by 90 degrees; gradient of hat_i is perp of opposite edge
    for i, e in enumerate((e0, e1, e2)):
        grads[:, i, 0] = -e[:, 1]
        grads[:, i, 1] = e[:, 0]
    grads /= (2.0 * area)[:, None, None]
    return grads, area


def _coo_indices(mesh):
    """Row and column indices of the nine local entries of every triangle, int32."""
    tris = mesh.triangles.astype(np.int32)
    return np.repeat(tris, 3, axis=1).ravel(), np.tile(tris, 3).ravel()


def assemble_mass(mesh):
    """Full-vertex mass matrix (CSR), entries integral(phi_i phi_j)."""
    local = np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]]) / 12.0
    data = (local[None, :, :] * mesh.areas[:, None, None]).ravel()
    n = mesh.n_vertices
    return sparse().coo_matrix((data, _coo_indices(mesh)), shape=(n, n)).tocsr()


def weighted_mass_values(mass, mesh, weights) -> np.ndarray:
    """Values of the mass matrix with each triangle's contribution scaled by its weight.

    They are laid out on the CSR structure of ``mass`` (``assemble_mass(mesh)``,
    canonical, so the keys row * n + column of its entries ascend).  The
    triangles' nine local entries are scattered one at a time, so the
    transient memory is a few vectors of the triangles' length rather than
    an assembly's nine triplets per triangle.
    """
    n = mass.shape[0]
    keys = np.repeat(np.arange(n), np.diff(mass.indptr)) * n + mass.indices
    scale = mesh.areas * weights / 12.0
    tris = mesh.triangles
    data = np.zeros(mass.nnz)
    for a in range(3):
        for b in range(3):
            at = np.searchsorted(keys, tris[:, a] * n + tris[:, b])
            data += np.bincount(at, weights=2.0 * scale if a == b else scale,
                                minlength=mass.nnz)
    return data


def assemble_stiffness(mesh):
    """Full-vertex stiffness matrix (CSR), entries integral(grad phi_i . grad phi_j)."""
    grads, area = _triangle_geometry(mesh)
    data = np.einsum("tid,tjd,t->tij", grads, grads, area).ravel()
    n = mesh.n_vertices
    return sparse().coo_matrix((data, _coo_indices(mesh)), shape=(n, n)).tocsr()


def solve_spd(matrix, rhs, tol=1e-10, max_iter=None, counter: Optional[SolveCounter] = None,
              x0=None, precond: Optional[Callable] = None):
    """Preconditioned conjugate gradients for SPD systems.

    ``precond`` maps a residual r to B r for a symmetric positive definite B
    (a ``Multigrid.preconditioner``); by default B is the inverse diagonal
    (Jacobi).  Starts from ``x0`` (zero by default; the caller's array is not
    changed) and stops when the residual satisfies ||b - A x|| <= tol * ||b||
    (``tol`` a finite positive number, ValueError otherwise), after 0
    iterations if ``x0`` already does.  Deterministic for fixed
    inputs; raises SolverError with the last residual if max_iter is
    exhausted, or if a search direction p has p . A p <= 0 (the matrix or the
    preconditioner is not positive definite).
    """
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be a finite positive number, got {tol!r}")
    b = np.asarray(rhs, dtype=float)
    n = len(b)
    if max_iter is None:
        max_iter = max(10 * n, 200)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        if counter is not None:
            counter.record(0)
        return np.zeros(n)
    d = matrix.diagonal()
    if np.any(d <= 0):
        raise SolverError("matrix diagonal is not positive", residual=np.inf)
    if precond is None:
        def precond(r):
            return r / d
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
    rz = float(r @ z)
    for it in range(1, max_iter + 1):
        q = matrix @ p
        pq = float(p @ q)
        if not pq > 0.0:
            raise SolverError(f"CG breakdown at iteration {it}: p . A p = {pq:.3e} is not "
                              "positive", residual=np.linalg.norm(r) / bnorm)
        alpha = rz / pq
        x += alpha * p
        r -= alpha * q
        res = np.linalg.norm(r)
        if res <= tol * bnorm:
            if counter is not None:
                counter.record(it)
            return x
        z = precond(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
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
    ``key``, and rebuilt when the key changes, the old ones dropped first;
    the build leaves those of the stiffness matrix, under the key
    'stiffness'.  The restrictions P^T are stored as CSR, and every vector
    of a cycle but its output, which is new at each call, lives in work
    vectors allocated once per hierarchy.
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
        """The V-cycle r -> B r of ``matrix``; ``key`` names its values ('stiffness', or a tau)."""
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

    def __init__(self, mesh, rule: Optional[QuadratureRule] = None, tol=1e-10):
        self.mesh = mesh
        self.rule = rule if rule is not None else quadrature_rule(5)
        self.tol = tol
        self.free = mesh.free_vertices
        self.mass = assemble_mass(mesh)
        self.mass_ff = self.mass[self.free][:, self.free].tocsr()
        mass_ff, stiffness_ff = self.mass_ff, assemble_stiffness(mesh)[self.free][:, self.free]
        if not (np.array_equal(mass_ff.indptr, stiffness_ff.indptr)
                and np.array_equal(mass_ff.indices, stiffness_ff.indices)):
            raise ValueError("mass and stiffness matrices must share one sparsity pattern")
        # one pair of index arrays for both
        stiffness_ff.indices, stiffness_ff.indptr = mass_ff.indices, mass_ff.indptr
        self.stiffness_ff = stiffness_ff
        self.grads, self.area = _triangle_geometry(mesh)
        # physical quadrature points per triangle, (nt, q, 2): a view of one
        # (2, nt, q) array, so a block's x and y values are contiguous
        nt = mesh.n_triangles
        corners = mesh.vertices[mesh.triangles].transpose(2, 0, 1)[..., None]   # (2, nt, 3, 1)
        xy = np.zeros((2, nt, len(self.rule.points)))
        for b, column in enumerate(self.rule.points.T):   # the barycentric columns
            xy += corners[:, :, b] * column
        self.quad_xy = xy.transpose(1, 2, 0)
        self.blocks = [slice(lo, min(lo + QUAD_BLOCK, nt)) for lo in range(0, nt, QUAD_BLOCK)]

    @cached_property
    def multigrid(self) -> Optional[Multigrid]:
        """The free-vertex V-cycle hierarchy, built at first use; None below MULTIGRID_MIN_FREE."""
        if len(self.free) < MULTIGRID_MIN_FREE:
            return None
        return Multigrid(self.stiffness_ff, self.mesh.vertices[self.free], 2.0 * self.mesh.h)

    def preconditioner(self, matrix, key) -> Optional[Callable]:
        """``solve_spd``'s precond for a free-vertex stiffness or step matrix (None: Jacobi)."""
        multigrid = self.multigrid
        return None if multigrid is None else multigrid.preconditioner(matrix, key)

    # -- integration ------------------------------------------------------

    def assemble_load(self, g: Callable) -> np.ndarray:
        """Load vector b_i ~ integral(g phi_i) over all vertices, by the space's rule.

        The pointwise g(x, y) is called once per block of triangles.
        """
        rule, xy = self.rule, self.quad_xy
        weights = rule.weights[:, None] * rule.points
        per_tri = np.empty((self.mesh.n_triangles, 3))
        for b in self.blocks:
            np.matmul(np.asarray(g(xy[b, :, 0], xy[b, :, 1]), dtype=float), weights,
                      out=per_tri[b])
        per_tri *= self.area[:, None]
        return self._scatter(per_tri)

    def load(self, vals) -> np.ndarray:
        """Load vector of g from its values at the quadrature points, (nt, q)."""
        rule = self.rule
        vals = np.asarray(vals, dtype=float)
        return self._scatter(self.area[:, None] * (vals @ (rule.weights[:, None] * rule.points)))

    def gradient_load(self, gx, gy) -> np.ndarray:
        """integral(grad g . grad phi_i) over all vertices, from grad g at the quadrature points."""
        contrib = np.empty((self.mesh.n_triangles, 3))
        self._gradient_contrib(gx, gy, slice(None), out=contrib)
        return self._scatter(contrib)

    def _gradient_contrib(self, gx, gy, b, out):
        """integral(grad g . grad phi) over each triangle of the slice b, into ``out``, (len, 3)."""
        w, area, grads = self.rule.weights, self.area[b], self.grads[b]
        np.multiply(((np.asarray(gx, dtype=float) @ w) * area)[:, None], grads[:, :, 0], out=out)
        out += ((np.asarray(gy, dtype=float) @ w) * area)[:, None] * grads[:, :, 1]

    def _scatter(self, contrib) -> np.ndarray:
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
        return solve_spd(self.mass, b, tol=self.tol)

    def h1_project(self, grad_g: Callable) -> np.ndarray:
        """H1_0-orthogonal projection from the gradient of the target, on the free vertices.

        grad_g(x, y) returns the two gradient components pointwise and is
        called once per block of triangles; the projection solves the
        free-vertex stiffness system with rhs integral(grad g . grad phi_i).
        """
        xy = self.quad_xy
        contrib = np.empty((self.mesh.n_triangles, 3))
        for b in self.blocks:
            self._gradient_contrib(*grad_g(xy[b, :, 0], xy[b, :, 1]), b, out=contrib[b])
        rhs = self._scatter(contrib)
        return solve_spd(self.stiffness_ff, rhs[self.free], tol=self.tol,
                         precond=self.preconditioner(self.stiffness_ff, "stiffness"))

    def apply_discrete_laplacian(self, w, counter=None) -> np.ndarray:
        """z in V_h with (z, phi) = (grad w, grad phi) for all phi in V_h; free vertices."""
        return solve_spd(self.mass_ff, self.stiffness_ff @ w, tol=self.tol, counter=counter)

    # -- norms --------------------------------------------------------------

    def l2_norm(self, values) -> float:
        """L2 norm of a P1 function given by its all-vertex coefficients."""
        v = np.asarray(values, dtype=float)
        return float(np.sqrt(max(v @ (self.mass @ v), 0.0)))

    def h1_seminorm(self, values) -> float:
        """H1 seminorm of a P1 function given by its free-vertex coefficients (zero trace).

        The product runs over all vertices, boundary zeros included, so it
        sums the terms of the all-vertex form v . (K v) in the same order.
        """
        v = np.asarray(values, dtype=float)
        return float(np.sqrt(max(self.full(v) @ self.full(self.stiffness_ff @ v), 0.0)))
