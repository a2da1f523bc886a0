"""Exact formulas the tests compare the package against, and a jittered test mesh.

The package computes these quantities in other forms: the space
estimator's volume term as the quadratic form of the h_K^2-weighted mass
matrix, and the standing mode's true error by its moments.  The closed
forms here are the references.
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
