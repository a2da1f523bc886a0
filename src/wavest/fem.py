"""P1 finite element kernels on triangulations.

Matrices are assembled over the full vertex set as scipy CSR; homogeneous
Dirichlet conditions are imposed by restriction to the free (non-boundary)
vertices, which keeps every system symmetric positive definite.  ``FemSpace``
bundles a mesh with its assembled operators, quadrature geometry and the
index bookkeeping the time steppers and estimators need.  A P1 function is a
plain coefficient array, on the free vertices (zero trace) or on all of
them; ``FemSpace.full`` scatters the first kind into the second.

Per-triangle integrals reach the vertices through one ``np.bincount`` over
the triangles' vertex indices.  A load vector is a single matmul of the
integrand's quadrature values with the rule's weights times its barycentric
points, scaled by the triangle areas.

Linear systems are solved with Jacobi-preconditioned conjugate gradients,
from zero or from a given start vector; pass a ``SolveCounter`` to account
for solver work (the cost comparison of the two time estimators rests on
these counters).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp


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


def quadrature_rule(degree=5) -> QuadratureRule:
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


def assemble_mass(mesh) -> sp.csr_matrix:
    """Full-vertex mass matrix, entries integral(phi_i phi_j)."""
    local = np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]]) / 12.0
    nt = mesh.n_triangles
    data = (local[None, :, :] * mesh.areas[:, None, None]).reshape(nt, 9)
    rows = np.repeat(mesh.triangles, 3, axis=1).reshape(nt, 9)
    cols = np.tile(mesh.triangles, 3).reshape(nt, 9)
    n = mesh.n_vertices
    return sp.coo_matrix((data.ravel(), (rows.ravel(), cols.ravel())), shape=(n, n)).tocsr()


def assemble_stiffness(mesh) -> sp.csr_matrix:
    """Full-vertex stiffness matrix, entries integral(grad phi_i . grad phi_j)."""
    grads, area = _triangle_geometry(mesh)
    nt = mesh.n_triangles
    local = np.einsum("tid,tjd,t->tij", grads, grads, area)
    rows = np.repeat(mesh.triangles, 3, axis=1).reshape(nt, 9)
    cols = np.tile(mesh.triangles, 3).reshape(nt, 9)
    n = mesh.n_vertices
    return sp.coo_matrix((local.reshape(nt, 9).ravel(), (rows.ravel(), cols.ravel())),
                         shape=(n, n)).tocsr()


def solve_spd(matrix, rhs, tol=1e-10, max_iter=None, counter: Optional[SolveCounter] = None,
              x0=None):
    """Jacobi-preconditioned conjugate gradients for SPD systems.

    Starts from ``x0`` (zero by default; the caller's array is not changed)
    and stops when the residual satisfies ||b - A x|| <= tol * ||b||, after
    0 iterations if ``x0`` already does.  Deterministic for fixed inputs;
    raises SolverError with the last residual if max_iter is exhausted.
    """
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
    z = r / d
    p = z.copy()
    rz = float(r @ z)
    for it in range(1, max_iter + 1):
        q = matrix @ p
        alpha = rz / float(p @ q)
        x += alpha * p
        r -= alpha * q
        res = np.linalg.norm(r)
        if res <= tol * bnorm:
            if counter is not None:
                counter.record(it)
            return x
        z = r / d
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise SolverError(
        f"CG did not reach tol={tol:g} within {max_iter} iterations "
        f"(relative residual {res / bnorm:.3e})",
        residual=res / bnorm,
    )


class FemSpace:
    """A mesh with its assembled P1 operators and quadrature geometry."""

    def __init__(self, mesh, rule: Optional[QuadratureRule] = None, tol=1e-10):
        self.mesh = mesh
        self.rule = rule if rule is not None else quadrature_rule(5)
        self.tol = tol
        self.free = mesh.free_vertices
        self.mass = assemble_mass(mesh)
        self.stiffness = assemble_stiffness(mesh)
        self.mass_ff = self.mass[self.free][:, self.free].tocsr()
        self.stiffness_ff = self.stiffness[self.free][:, self.free].tocsr()
        self.grads, self.area = _triangle_geometry(mesh)
        # physical quadrature points per triangle: (nt, q, 2)
        p = mesh.vertices[mesh.triangles]
        self.quad_xy = np.einsum("qb,tbd->tqd", self.rule.points, p)

    # -- integration ------------------------------------------------------

    def assemble_load(self, g: Callable) -> np.ndarray:
        """Load vector b_i ~ integral(g phi_i) over all vertices, by the space's rule."""
        rule, xy = self.rule, self.quad_xy
        vals = np.asarray(g(xy[:, :, 0], xy[:, :, 1]), dtype=float)
        return self._scatter(self.area[:, None] * (vals @ (rule.weights[:, None] * rule.points)))

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

        grad_g(x, y) returns the two gradient components; the projection
        solves the free-vertex stiffness system with rhs integral(grad g .
        grad phi_i).
        """
        gx_gy = grad_g(self.quad_xy[:, :, 0], self.quad_xy[:, :, 1])
        gx = np.asarray(gx_gy[0], dtype=float)
        gy = np.asarray(gx_gy[1], dtype=float)
        # integral over each triangle of grad g . grad phi_b
        contrib = np.einsum("tq,q,tb,t->tb", gx, self.rule.weights, self.grads[:, :, 0], self.area) \
            + np.einsum("tq,q,tb,t->tb", gy, self.rule.weights, self.grads[:, :, 1], self.area)
        rhs = self._scatter(contrib)
        return solve_spd(self.stiffness_ff, rhs[self.free], tol=self.tol)

    def apply_discrete_laplacian(self, w, counter=None) -> np.ndarray:
        """z in V_h with (z, phi) = (grad w, grad phi) for all phi in V_h; free vertices."""
        return solve_spd(self.mass_ff, self.stiffness_ff @ w, tol=self.tol, counter=counter)

    # -- norms --------------------------------------------------------------

    def l2_norm(self, values) -> float:
        """L2 norm of a P1 function given by its all-vertex coefficients."""
        v = np.asarray(values, dtype=float)
        return float(np.sqrt(max(v @ (self.mass @ v), 0.0)))

    def h1_seminorm(self, values) -> float:
        """H1 seminorm of a P1 function given by its all-vertex coefficients."""
        v = np.asarray(values, dtype=float)
        return float(np.sqrt(max(v @ (self.stiffness @ v), 0.0)))

    # -- elementwise quantities for the space estimator ---------------------

    def element_l2_sq(self, full_values) -> np.ndarray:
        """Per-triangle integral of the square of a P1 function.

        Exact: for nodal values (a, b, c) the integral is
        area/6 * (a^2 + b^2 + c^2 + ab + bc + ca).
        """
        a, b, c = np.asarray(full_values, dtype=float)[self.mesh.triangles.T]
        return self.area / 6.0 * ((a * a + b * b + c * c) + (a * b + b * c + c * a))

    def element_gradients(self, full_values) -> np.ndarray:
        """Constant gradient of a P1 function on each triangle, shape (nt, 2)."""
        w = np.asarray(full_values, dtype=float)[self.mesh.triangles]
        return np.einsum("tb,tbd->td", w, self.grads)
