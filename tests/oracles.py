"""Exact formulas the tests compare the package against, and the test meshes off the grid.

The package computes these quantities in other forms: the space
estimator's volume term as the quadratic form of the h_K^2-weighted mass
matrix, and the standing mode's true error by its moments.  The closed
forms here are the references.  The one-shot forms of the quadrature-point
work (every triangle in one array), the einsum that maps the rule to every
triangle, the V-cycle that allocates each vector and the conjugate-gradient
loop that allocates each update (``allocating_cg``) are the references of
the package's blocked, broadcast, buffered and in-place forms, which must be
bit-equal to them.  So are the former set-up forms: mesh geometry from row
gathers of vertex pairs (``gathered_geometry``), the mass matrix as
incidence products (``incidence_mass``), the stiffness from COO triplets
(``triplet_stiffness``) and the free-vertex restriction by slicing
(``sliced_free``), the references of the side vectors and the edge-slot
pattern that ``Mesh`` and ``FemSpace`` build.

The paper's lemma machinery lives here too, built on the package's own
stencils: the step-weighted average ``bar_average``, the 5-point estimator's
``fourth_diff`` (the composition of ``second_diff`` and
``hat_second_diff`` the estimators apply), the alpha/beta coefficients
(``lemma_coefficients``) linking staggered differences of averages to
plain second differences, and the quadratic-in-time reconstruction.  The
acceptance gate checks the lemma identities against them.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from wavest.manufactured import MODE
from wavest.mesh import Mesh, format_mesh, generate_structured
from wavest.stencils import hat_second_diff, hat_times, second_diff


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


def clockwise_payload(mesh):
    """The text format of ``mesh`` with every other triangle written clockwise, and those triangles."""
    tris = mesh.triangles.copy()
    tris[::2] = tris[::2, [0, 2, 1]]
    lines = format_mesh(mesh).splitlines()
    lines[1 + mesh.n_vertices:] = [f"{i} {j} {k}" for i, j, k in tris]
    return "\n".join(lines) + "\n", tris


def gathered_geometry(vertices, triangles):
    """Areas, h_K, P1 hat gradients and smallest angle by row gathers of each triangle's corners.

    Side lengths come from the (3 nt, 2) side-index concatenation, the
    difference of two gathered vertex rows and ``np.linalg.norm``.
    """
    verts, tris = vertices, triangles
    p0, p1, p2 = verts[tris[:, 0]], verts[tris[:, 1]], verts[tris[:, 2]]
    signed = 0.5 * ((p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1])
                    - (p2[:, 0] - p0[:, 0]) * (p1[:, 1] - p0[:, 1]))
    edges = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    sides = np.linalg.norm(verts[edges[:, 1]] - verts[edges[:, 0]], axis=1).reshape(3, -1)
    grads = np.empty((len(tris), 3, 2))
    for i, (a, b) in enumerate(((p1, p2), (p2, p0), (p0, p1))):
        np.subtract(a[:, 1], b[:, 1], out=grads[:, i, 0])
        np.subtract(b[:, 0], a[:, 0], out=grads[:, i, 1])
    grads /= (2.0 * signed)[:, None, None]
    sines = (2.0 * signed / sides) / np.roll(sides, 1, axis=0)
    return {"areas": signed, "h_K": sides.max(axis=0), "grads": grads,
            "min_angle": float(np.arcsin(sines.min()))}


def incidence_mass(mesh, weights=1.0):
    """Full-vertex mass matrix T^T D T + diag(T^T D 1), sorted CSR.

    T is the triangle-vertex incidence (three ones per row) and D holds the
    weights times area / 12, the P1 local mass (area / 12)(1 1^T + I).
    """
    nt = mesh.n_triangles
    scale = weights * mesh.areas / 12.0
    rows = (mesh.triangles.ravel().astype(np.int32), np.arange(0, 3 * nt + 1, 3, dtype=np.int32))
    incidence = sp.csr_matrix((np.ones(3 * nt), *rows), shape=(nt, mesh.n_vertices))
    weighted = sp.csr_matrix((np.repeat(scale, 3), *rows), shape=incidence.shape)
    mass = (incidence.T @ weighted + sp.diags(incidence.T @ scale)).tocsr()
    mass.sort_indices()
    return mass


def triplet_stiffness(mesh):
    """Full-vertex stiffness matrix (CSR) from the COO triplets of the local matrices."""
    grads, tris = mesh.grads, mesh.triangles.astype(np.int32)
    data = np.einsum("tid,tjd,t->tij", grads, grads, mesh.areas).ravel()
    indices = np.repeat(tris, 3, axis=1).ravel(), np.tile(tris, 3).ravel()
    n = mesh.n_vertices
    return sp.coo_matrix((data, indices), shape=(n, n)).tocsr()


def sliced_free(matrix, mesh):
    """The free-vertex block of a full-vertex matrix, by row and column slicing."""
    free = mesh.free_vertices
    return matrix[free][:, free].tocsr()


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


def mode_derivatives(t, x, y, out=None):
    """The standing mode's du/dt and (du/dx, du/dy) at the points, in new arrays.

    Written from ``MODE`` apart from the package's callables, and bit-equal
    to the mode's ``dudt`` and ``grad_u``; ``out`` is ignored, as the mode's
    callables ignore it.
    """
    kx, ky = MODE
    omega = np.pi * np.hypot(kx, ky)
    s = np.sin(kx * np.pi * x) * np.sin(ky * np.pi * y)
    gx = kx * np.pi * np.cos(kx * np.pi * x) * np.sin(ky * np.pi * y)
    gy = ky * np.pi * np.sin(kx * np.pi * x) * np.cos(ky * np.pi * y)
    a = np.cos(omega * t)
    return -omega * np.sin(omega * t) * s, (a * gx, a * gy)


def derivatives(solution):
    """The ``derivatives`` the true-error quadrature takes: the pulse's own, the mode's oracle."""
    return solution.derivatives if solution.derivatives is not None else mode_derivatives


def einsum_quad_xy(space):
    """Physical quadrature points per triangle, (nt, q, 2), by one einsum over the corners."""
    p = space.mesh.vertices[space.mesh.triangles]
    return np.einsum("qb,tbd->dtq", space.rule.points, p).transpose(1, 2, 0)


def quad_points(space):
    """x and y of every triangle's quadrature points, (nt, q) each.

    Copied block by block from ``FemSpace.block_points``, whose arrays the
    space overwrites at its next call.
    """
    blocks = [[a.copy() for a in space.block_points(b)] for b in space.blocks]
    return tuple(np.concatenate(axis) for axis in zip(*blocks))


def _scatter(space, per_tri):
    return np.bincount(space.mesh.triangles.ravel(), weights=per_tri.ravel(),
                       minlength=space.mesh.n_vertices)


def one_shot_load(space, g):
    """``FemSpace.assemble_load`` with g evaluated at every quadrature point at once."""
    rule = space.rule
    vals = g(*quad_points(space))
    return _scatter(space, space.area[:, None] * (vals @ (rule.weights[:, None] * rule.points)))


def one_shot_gradient_load(space, grad_g):
    """The H1_0 projection's right-hand side with grad g evaluated at every point at once."""
    w, area = space.rule.weights, space.area
    gx, gy = grad_g(*quad_points(space))
    return _scatter(space, ((gx @ w) * area)[:, None] * space.grads[:, :, 0]
                    + ((gy @ w) * area)[:, None] * space.grads[:, :, 1])


def one_shot_energy_error(space, state, derivatives):
    """``harness.wave_energy_error_at`` with ``derivatives`` called once on all quadrature points.

    ``derivatives(t, x, y)`` returns new arrays of du/dt and (du/dx, du/dy)
    at every quadrature point (``quad_points``); the residuals are computed
    in them, as the package does.
    """
    dudt, (gx, gy) = derivatives(state.t, *quad_points(space))
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


def allocating_cg(matrix, rhs, precond, tol, x0=None):
    """``fem.solve_spd``'s former loop, a new array for every update: (x, iterations).

    x + alpha p, r - alpha q, the residual as ``np.linalg.norm`` and the
    next direction z + beta p, each a new array, from zero or from a copy of
    ``x0``; no iteration limit and no breakdown check.
    """
    b = np.asarray(rhs, dtype=float)
    bnorm = np.linalg.norm(b)
    if x0 is None:
        x, r = np.zeros(len(b)), b.copy()
    else:
        x = np.array(x0, dtype=float)
        r = b - matrix @ x
        if np.linalg.norm(r) <= tol * bnorm:
            return x, 0
    z = precond(r)
    p = z.copy()
    rz = float(r @ z)
    it = 0
    while True:
        it += 1
        q = matrix @ p
        alpha = rz / float(p @ q)
        x += alpha * p
        r -= alpha * q
        if np.linalg.norm(r) <= tol * bnorm:
            return x, it
        z = precond(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new


def bar_average(w, tau):
    """Step-weighted three-point average.

    Returns (tau1*(w2 + w1) + tau0*(w1 + w0)) / (4*(tau0 + tau1)/2).  For
    constant data this is the identity; on a uniform grid it reduces to
    (w2 + 2*w1 + w0)/4.  For affine data it equals the value at the staggered
    time (t2 + t0)/2.
    """
    if len(w) != 3 or len(tau) != 2:
        raise ValueError("bar_average needs 3 values and 2 steps")
    tau0, tau1 = tau
    if np.any(tau0 <= 0) or np.any(tau1 <= 0):
        raise ValueError("steps must be positive")
    return (tau1 * (w[2] + w[1]) + tau0 * (w[1] + w[0])) / (2.0 * (tau0 + tau1))


def fourth_diff(w, t):
    """Fourth difference over 5 consecutive values.

    Composes the staggered second difference with the plain one: the three
    second differences of ``w`` are treated as values at the staggered times
    of the window.  On a uniform grid this is (w4 - 4 w3 + 6 w2 - 4 w1 + w0)
    / tau^4 centered at the middle node; on non-uniform grids it is defined
    by the composition (and is not, in general, consistent with the fourth
    derivative).
    """
    if len(w) != 5 or len(t) != 5:
        raise ValueError("fourth_diff needs 5 values and 5 time points")
    t = np.asarray(t, dtype=float)
    tau = np.diff(t)
    d2 = [second_diff(w[k:k + 3], tau[k:k + 2]) for k in range(3)]
    return hat_second_diff(d2, hat_times(t))


@dataclass(frozen=True)
class LemmaCoefficients:
    """Coefficients linking staggered and plain second differences.

    For any 5-window the identity

        hat_second_diff(bar_average(w)) = sum_k alpha[k] * second_diff_k(w)

    holds, and for windows (w, s) coupled by the trapezoidal relation
    (w[n+1]-w[n])/tau[n] = (s[n]+s[n+1])/2 one additionally has

        sum_k alpha[k] d2_k w = sum_alpha * d2_n w - tau_n * sum_k beta[k] d2_k s.
    """

    alpha: np.ndarray  # 3 coefficients, for k = n-2, n-1, n
    beta: np.ndarray   # 3 coefficients, same indexing
    sum_alpha: float


def _two_sided_linear(t, k):
    """Values at nodes ``t`` of the piecewise-linear function that equals 1 at
    t[k], is affine left of t[k] with slope 1/tau[k-1], and affine right of
    t[k] with slope -1/tau[k]."""
    t = np.asarray(t, dtype=float)
    vals = np.empty_like(t)
    left = t < t[k]
    vals[left] = (t[left] - t[k - 1]) / (t[k] - t[k - 1])
    vals[~left] = (t[k + 1] - t[~left]) / (t[k + 1] - t[k])
    return vals


def lemma_coefficients(tau):
    """Build the alpha and beta coefficient triples from 4 consecutive steps.

    The construction evaluates both sides of the defining identities on a
    basis of two-sided linear functions; each basis function isolates one
    coefficient because its plain second differences vanish at the other two
    interior nodes.  On a uniform grid alpha = (1/4, 1/2, 1/4).
    """
    tau = np.asarray(tau, dtype=float)
    if len(tau) != 4:
        raise ValueError("lemma_coefficients needs 4 steps")
    if np.any(tau <= 0):
        raise ValueError("steps must be positive")
    # local window times t_{n-3} .. t_{n+1}, with the target node at index 3
    t = np.concatenate(([0.0], np.cumsum(tau)))
    that = hat_times(t)  # staggered times for interior nodes 1..3

    def d2(w, k):
        # plain second difference at interior node k in {1, 2, 3}
        return second_diff(w[k - 1:k + 2], tau[k - 1:k + 1])

    def hat_d2_bar(w):
        bars = [bar_average(w[k - 1:k + 2], tau[k - 1:k + 1]) for k in (1, 2, 3)]
        return hat_second_diff(bars, that)

    def d1(w, k):
        # central first difference at interior node k
        return (w[k + 1] - w[k - 1]) / (tau[k] + tau[k - 1])

    alpha = np.empty(3)
    for j, k in enumerate((1, 2, 3)):
        phi = _two_sided_linear(t, k)
        alpha[j] = hat_d2_bar(phi) / d2(phi, k)
    sum_alpha = float(alpha.sum())

    beta = np.empty(3)
    for j, k in enumerate((1, 2, 3)):
        phi = _two_sided_linear(t, k)
        lhs = sum(alpha[i] * d1(phi, ki) for i, ki in enumerate((1, 2, 3)))
        beta[j] = (sum_alpha * d1(phi, 3) - lhs) / (tau[3] * d2(phi, k))
    return LemmaCoefficients(alpha=alpha, beta=beta, sum_alpha=sum_alpha)


def quadratic_reconstruction(times, values):
    """Quadratic-in-time interpolant of three states.

    Returns an evaluator ``p(t)`` built in Lagrange form; it reproduces the
    three nodal states exactly and is exact for data sampled from any
    quadratic polynomial.  Values may be floats or arrays.
    """
    t0, t1, t2 = (float(s) for s in times)
    if t0 == t1 or t1 == t2 or t0 == t2:
        raise ValueError("reconstruction times must be distinct")
    w0, w1, w2 = values

    def evaluate(t):
        l0 = (t - t1) * (t - t2) / ((t0 - t1) * (t0 - t2))
        l1 = (t - t0) * (t - t2) / ((t1 - t0) * (t1 - t2))
        l2 = (t - t0) * (t - t1) / ((t2 - t0) * (t2 - t1))
        return l0 * w0 + l1 * w1 + l2 * w2

    return evaluate
