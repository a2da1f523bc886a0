"""Exact formulas the tests compare the package against, and a jittered test mesh.

The package computes these quantities in other forms: the space
estimator's volume term as the quadratic form of the h_K^2-weighted mass
matrix, and the standing mode's true error by its moments.  The closed
forms here are the references.  The one-shot forms of the quadrature-point
work (every triangle in one array) and the V-cycle that allocates each
vector are the references of the package's blocked and buffered forms,
which must be bit-equal to them.
"""

import numpy as np

from wavest.manufactured import MODE
from wavest.mesh import Mesh, generate_structured


def jittered_crisscross(n, seed=7):
    """Crisscross level n with each interior vertex moved by at most 0.1 h."""
    base = generate_structured(n, "crisscross")
    rng = np.random.default_rng(seed)
    verts = base.vertices.copy()
    free = ~base.boundary_vertex
    radius = 0.1 * base.h * np.sqrt(rng.uniform(size=free.sum()))
    angle = rng.uniform(0.0, 2.0 * np.pi, size=free.sum())
    verts[free] += radius[:, None] * np.column_stack([np.cos(angle), np.sin(angle)])
    return Mesh(vertices=verts, triangles=base.triangles, boundary_vertex=base.boundary_vertex)


def element_l2_sq(space, full_values):
    """Per-triangle integral of the square of a P1 function.

    Exact: for nodal values (a, b, c) the integral is
    area/6 * (a^2 + b^2 + c^2 + ab + bc + ca).
    """
    a, b, c = np.asarray(full_values, dtype=float)[space.mesh.triangles.T]
    return space.area / 6.0 * ((a * a + b * b + c * c) + (a * b + b * c + c * a))


def element_gradients(space, full_values):
    """Constant gradient of a P1 function on each triangle, shape (nt, 2)."""
    w = np.asarray(full_values, dtype=float)[space.mesh.triangles]
    return np.einsum("tb,tbd->td", w, space.grads)


def mode_bind(x, y):
    """The standing mode bound to fixed points: t -> (du/dt, (du/dx, du/dy)).

    The shape and its gradient are evaluated once; each time's values are
    written into three arrays reused by every call, so a call's output is
    overwritten by the next.  Bit-equal to the mode's ``dudt`` and ``grad_u``.
    """
    kx, ky = MODE
    omega = np.pi * np.hypot(kx, ky)
    s = np.sin(kx * np.pi * x) * np.sin(ky * np.pi * y)
    g = (kx * np.pi * np.cos(kx * np.pi * x) * np.sin(ky * np.pi * y),
         ky * np.pi * np.sin(kx * np.pi * x) * np.cos(ky * np.pi * y))
    out = [None, None, None]   # allocated by the first call, overwritten by the next

    def at(t):
        a = np.cos(omega * t)
        out[0] = np.multiply(-omega * np.sin(omega * t), s, out=out[0])
        out[1] = np.multiply(a, g[0], out=out[1])
        out[2] = np.multiply(a, g[1], out=out[2])
        return out[0], (out[1], out[2])
    return at


def bind(solution, x, y):
    """A solution bound to fixed points: the pulse's own ``bind``, the mode's ``mode_bind``."""
    return solution.bind(x, y) if solution.bind is not None else mode_bind(x, y)


def _scatter(space, per_tri):
    return np.bincount(space.mesh.triangles.ravel(), weights=per_tri.ravel(),
                       minlength=space.mesh.n_vertices)


def one_shot_load(space, g):
    """``FemSpace.assemble_load`` with g evaluated at every quadrature point at once."""
    rule, xy = space.rule, space.quad_xy
    vals = g(xy[:, :, 0], xy[:, :, 1])
    return _scatter(space, space.area[:, None] * (vals @ (rule.weights[:, None] * rule.points)))


def one_shot_gradient_load(space, grad_g):
    """The H1_0 projection's right-hand side with grad g evaluated at every point at once."""
    xy, w, area = space.quad_xy, space.rule.weights, space.area
    gx, gy = grad_g(xy[:, :, 0], xy[:, :, 1])
    return _scatter(space, ((gx @ w) * area)[:, None] * space.grads[:, :, 0]
                    + ((gy @ w) * area)[:, None] * space.grads[:, :, 1])


def one_shot_energy_error(space, state, exact):
    """``harness.wave_energy_error_at`` with one evaluator bound to all quadrature points.

    ``exact`` maps t to new arrays of du/dt and (du/dx, du/dy) at
    ``space.quad_xy``; the residuals are computed in them, as the package does.
    """
    dudt, (gx, gy) = exact(state.t)
    rule, area, tris = space.rule, space.area, space.mesh.triangles
    nodal = space.full(state.u)[tris]
    h1_terms = []
    for d, g in enumerate((gx, gy)):
        grad = np.einsum("tb,tb->t", nodal, space.grads[:, :, d])
        np.square(np.subtract(grad[:, None], g, out=g), out=g)
        h1_terms.append((g @ rule.weights) @ area)
    r = np.matmul(space.full(state.v)[tris], rule.points.T, out=gx)
    np.square(np.subtract(r, dudt, out=r), out=r)
    err_sq = (r @ rule.weights) @ area
    for term in h1_terms:
        err_sq += term
    return float(np.sqrt(err_sq))


def allocating_vcycle(prolongators, matrix):
    """The V-cycle of ``Multigrid.preconditioner(matrix, key)``, a new array for every vector.

    The Galerkin operators and damped-Jacobi weights are rebuilt here from
    the hierarchy's prolongators, as the package builds them.
    """
    levels = []
    a = matrix
    for prolongator in prolongators:
        d = a.diagonal()
        rho = (np.add.reduceat(np.abs(a.data), a.indptr[:-1]) / d).max()
        levels.append((a, (4.0 / (3.0 * rho)) / d))
        a = (prolongator.T @ (a @ prolongator)).tocsr()
    coarsest = np.linalg.inv(a.toarray())

    def vcycle(r):
        down = []
        for (a, weights), prolongator in zip(levels, prolongators):
            x = weights * r
            down.append((a, weights, r, x))
            r = prolongator.T @ (r - a @ x)
        e = coarsest @ r
        for (a, weights, r, x), prolongator in zip(reversed(down), reversed(prolongators)):
            x += prolongator @ e
            x += weights * (r - a @ x)
            e = x
        return e
    return vcycle
