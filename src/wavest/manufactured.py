"""Closed-form test solutions for the wave equation on the unit square.

The main case is a travelling Gaussian pulse u = exp(-s r^2) of sharpness
s = ``SHARPNESS`` = 100 whose center moves from (0.3, 0.3) at t = 0 to
(0.7, 0.7) at t = 1 along c(t) = 0.3 + 0.4 t^2.  All derivatives below are
exact symbolic differentiations of that expression; the tests validate them
against finite differences.  The pulse does not vanish on the boundary: its
largest boundary value over [0, 1] is exp(-9) = 1.23e-4, at t = 0 and t = 1
(the center is 0.3 from two sides), falling to exp(-16) = 1.1e-7 at t = 0.5.
The homogeneous Dirichlet condition therefore holds to about 1e-4, not to
round-off, and only on [0, 1]: the center reaches the boundary at t = 1.32.
The second case is the standing eigenmode with wave numbers ``MODE`` =
(1, 1), which has no forcing.

The harness measures the true energy error of a state in one of two
forms, which a solution offers through one of two hooks:

* ``moments(space)``, for the separable standing mode u = c(t) s(x): once per
  run, with the space's rule, it integrates the moments of r = I s - s, the
  interpolation error of the shape: b = (r, phi_i), g = (grad r, grad phi_i)
  on the free vertices, ||r||^2 and |r|^2_H1.  It returns ``state -> e`` with
  e^2 = dv.M dv + 2 c' dv.b + c'^2 ||r||^2 + du.K du + 2 c du.g + c^2 |r|^2_H1
  for dv = v - c' I s and du = u - c I s, two matvecs and four dot products
  per state.  By the rule's exactness on P1 products this is the quadrature
  of the error; every term has the error's size, so no digits cancel;
* ``derivatives(t, x, y, out=None)``, for the pulse: du/dt and (du/dx,
  du/dy) at the points, the values the quadrature integrates against,
  called per block and time on the block's points from
  ``FemSpace.block_points``.  It evaluates the exponential once for both
  parts, with the helpers of the ``(t, x, y)`` callables in the same order,
  so the values are bit-equal to ``dudt`` and ``grad_u``.  The three arrays
  are the caller's (``out``) or new, so the caller may compute in them.

Every callable is pointwise: the package evaluates it on one block of at
most ``fem.QUAD_BLOCK`` triangles' quadrature points at a time, and the
blocks' values are those of one call on all the points.  The moments, too,
are integrated block by block.  Every callable takes an optional ``out``,
four arrays of the points' shape.  The pulse's compute in place in those
four (in four new arrays without ``out``), and the package passes the
space's ``FemSpace.block_work``, so a run's per-time evaluations allocate
no array and write four arrays of one block, which stay in cache.  The
mode's callables ignore ``out``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

SHARPNESS = 100.0   # s of the Gaussian pulse exp(-s r^2)
MODE = (1, 1)       # wave numbers (kx, ky) of the standing mode


@dataclass(frozen=True)
class ManufacturedSolution:
    """Exact solution bundle: u, time derivative, their gradients, forcing."""

    name: str
    u: Callable           # u(t, x, y, out=None)
    dudt: Callable        # du/dt(t, x, y, out=None)
    grad_u: Callable      # (du/dx, du/dy)(t, x, y, out=None)
    grad_dudt: Callable   # gradient of du/dt
    f: Callable           # u_tt - Lap(u)
    derivatives: Optional[Callable] = None  # (t, x, y, out=None) -> (du/dt, (du/dx, du/dy))
    moments: Optional[Callable] = None  # moments(space) -> (state -> energy-norm error)
    zero_forcing: bool = False  # f vanishes identically, so solvers may skip it

    def initial_data(self):
        """(grad u0, grad v0) as space-only callables, the data of the H1_0 projections."""
        return (
            lambda x, y, out=None: self.grad_u(0.0, x, y, out=out),
            lambda x, y, out=None: self.grad_dudt(0.0, x, y, out=out),
        )


def gaussian_pulse() -> ManufacturedSolution:
    """The travelling Gaussian with center 0.3 + 0.4 t^2 in both coordinates."""
    s = SHARPNESS

    def parts(t, x, y, out=None):
        """X = x - c, Y = y - c, R = X^2 + Y^2 and g = exp(-s R), in four arrays.

        The arrays are ``out``, four arrays of the points' shape, or four new
        ones of the broadcast shape of t, x and y (0-d for scalars).  The
        callers below compute in them in place, so no evaluation holds more
        than these four, and apply each closed form's operations in the
        order its written expression evaluates them, so the values are
        bit-equal to that expression's (the tests keep it as the oracle).
        """
        c = 0.3 + 0.4 * t * t
        if out is None:
            shape = np.broadcast_shapes(np.shape(x), np.shape(y), np.shape(c))
            out = [np.empty(shape) for _ in range(4)]
        X, Y, R, g = out
        np.subtract(x, c, out=X)
        np.subtract(y, c, out=Y)
        np.add(np.multiply(X, X, out=R), np.multiply(Y, Y, out=g), out=R)
        np.exp(np.multiply(R, -s, out=g), out=g)
        return X, Y, R, g

    def velocity(t, X, Y, g, out):
        """du/dt = 2 s c'(t) (X + Y) g, into ``out``."""
        np.add(X, Y, out=out)
        out *= 2.0 * s * 0.8 * t
        out *= g
        return out

    def gradient(X, Y, g):
        """(du/dx, du/dy) = -2 s (X, Y) g, into X and Y."""
        for Z in (X, Y):
            Z *= -2.0 * s
            Z *= g
        return X, Y

    # [()] turns the 0-d results of scalar arguments into scalars
    def u(t, x, y, out=None):
        return parts(t, x, y, out)[3][()]

    def dudt(t, x, y, out=None):
        X, Y, R, g = parts(t, x, y, out)
        return velocity(t, X, Y, g, out=R)[()]

    def grad_u(t, x, y, out=None):
        X, Y, _, g = parts(t, x, y, out)
        gx, gy = gradient(X, Y, g)
        return gx[()], gy[()]

    def grad_dudt(t, x, y, out=None):
        # 2 s c'(t) g (1 - 2 s Z (X + Y)) for Z = X, Y; X + Y in R
        X, Y, R, g = parts(t, x, y, out)
        cdot = 0.8 * t
        np.add(X, Y, out=R)
        g *= 2.0 * s * cdot
        for Z in (X, Y):
            Z *= 2.0 * s
            Z *= R
            np.subtract(1.0, Z, out=Z)
            Z *= g
        return X[()], Y[()]

    def f(t, x, y, out=None):
        X, Y, R, g = parts(t, x, y, out)
        cdot = 0.8 * t
        cddot = 0.8
        # u_tt = (h' + h^2) u with h = 2 s cdot (X + Y), in X; Lap u in R
        utt = np.add(X, Y, out=X)
        sq = np.multiply(utt, utt, out=Y)
        sq *= 4.0 * s * s * cdot ** 2
        utt *= 2.0 * s * cddot
        utt -= 4.0 * s * cdot ** 2
        utt += sq
        utt *= g
        lap = R
        lap *= 4.0 * s * s
        lap += -4.0 * s
        lap *= g
        utt -= lap
        return utt[()]

    def derivatives(t, x, y, out=None):
        X, Y, R, g = parts(t, x, y, out)
        return velocity(t, X, Y, g, out=R), gradient(X, Y, g)

    return ManufacturedSolution(name="gaussian", u=u, dudt=dudt, grad_u=grad_u,
                                grad_dudt=grad_dudt, f=f, derivatives=derivatives)


def standing_mode() -> ManufacturedSolution:
    """Separable eigenmode u = cos(omega t) sin(kx pi x) sin(ky pi y), f = 0."""
    kx, ky = MODE
    omega = np.pi * np.hypot(kx, ky)

    def shape(x, y):
        return np.sin(kx * np.pi * x) * np.sin(ky * np.pi * y)

    def grad_shape(x, y):
        gx = kx * np.pi * np.cos(kx * np.pi * x) * np.sin(ky * np.pi * y)
        gy = ky * np.pi * np.sin(kx * np.pi * x) * np.cos(ky * np.pi * y)
        return gx, gy

    # the time factors of u and du/dt
    def position(t):
        return np.cos(omega * t)

    def velocity(t):
        return -omega * np.sin(omega * t)

    def scaled(a, g):
        return a * g[0], a * g[1]

    # ``out`` is accepted and ignored: the mode's products allocate
    def u(t, x, y, out=None):
        return position(t) * shape(x, y)

    def dudt(t, x, y, out=None):
        return velocity(t) * shape(x, y)

    def grad_u(t, x, y, out=None):
        return scaled(position(t), grad_shape(x, y))

    def grad_dudt(t, x, y, out=None):
        return scaled(velocity(t), grad_shape(x, y))

    def f(t, x, y, out=None):
        return np.zeros(np.broadcast(np.asarray(x), np.asarray(y)).shape)

    def moments(space):
        w, area, free, tris = space.rule.weights, space.area, space.free, space.mesh.triangles
        base = space.full(shape(*space.mesh.vertices[free].T))
        nt = space.mesh.n_triangles
        # per triangle: the two loads' rows and the integrands of the two norms
        load_rows, grad_rows, l2_rows, h1_rows = (np.empty((nt, 3)), np.empty((nt, 3)),
                                                  np.empty(nt), np.empty(nt))
        for blk in space.blocks:
            x, y = space.block_points(blk)
            nodal = base[tris[blk]]
            rv = nodal @ space.rule.points.T - shape(x, y)          # I s - s at the points
            grad = np.einsum("tb,tbd->td", nodal, space.grads[blk])  # grad I s on each triangle
            sx, sy = grad_shape(x, y)
            rx, ry = grad[:, [0]] - sx, grad[:, [1]] - sy
            space.load_rows(rv, blk, out=load_rows[blk])
            space.gradient_rows(rx, ry, blk, out=grad_rows[blk])
            l2_rows[blk] = (rv * rv) @ w
            h1_rows[blk] = (rx * rx + ry * ry) @ w
        b = space.scatter(load_rows)[free]   # (I s - s, phi_i)
        g = space.scatter(grad_rows)[free]   # (grad(I s - s), grad phi_i)
        l2 = l2_rows @ area                  # ||I s - s||^2
        h1 = h1_rows @ area                  # |I s - s|^2_H1
        base = base[free]
        mass, stiffness = space.mass_ff, space.stiffness_ff

        def error(state):
            c, cdot = position(state.t), velocity(state.t)
            dv = state.v - cdot * base
            du = state.u - c * base
            l2_sq = dv @ (mass @ dv) + 2.0 * cdot * (dv @ b) + cdot * cdot * l2
            h1_sq = du @ (stiffness @ du) + 2.0 * c * (du @ g) + c * c * h1
            return float(np.sqrt(max(l2_sq + h1_sq, 0.0)))
        return error

    return ManufacturedSolution(name=f"mode({kx},{ky})", u=u, dudt=dudt, grad_u=grad_u,
                                grad_dudt=grad_dudt, f=f, moments=moments, zero_forcing=True)


def get_solution(name: str) -> ManufacturedSolution:
    """The solution named 'gaussian' (the pulse) or 'mode' (the standing mode)."""
    if name == "gaussian":
        return gaussian_pulse()
    if name == "mode":
        return standing_mode()
    raise ValueError(f"unknown manufactured solution {name!r}")
