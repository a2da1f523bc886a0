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

``bind(x, y)`` fixes the points (a run's quadrature points) and returns
``t -> (du/dt, (du/dx, du/dy))``, the pair the true energy error needs.  The
standing mode evaluates its shape and gradient once, when bound; the pulse
evaluates its exponential once per time for both parts.  Both use the
helpers of the ``(t, x, y)`` callables in the same order, so the values are
bit-equal to ``dudt`` and ``grad_u``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

SHARPNESS = 100.0   # s of the Gaussian pulse exp(-s r^2)
MODE = (1, 1)       # wave numbers (kx, ky) of the standing mode


@dataclass(frozen=True)
class ManufacturedSolution:
    """Exact solution bundle: u, time derivative, their gradients, forcing."""

    name: str
    u: Callable           # u(t, x, y)
    dudt: Callable        # du/dt(t, x, y)
    grad_u: Callable      # (du/dx, du/dy)(t, x, y)
    grad_dudt: Callable   # gradient of du/dt
    f: Callable           # u_tt - Lap(u)
    bind: Callable        # bind(x, y) -> (t -> (du/dt, (du/dx, du/dy))) at fixed points
    zero_forcing: bool = False  # f vanishes identically, so solvers may skip it

    def initial_data(self):
        """(grad u0, grad v0) as space-only callables, the data of the H1_0 projections."""
        return (
            lambda x, y: self.grad_u(0.0, x, y),
            lambda x, y: self.grad_dudt(0.0, x, y),
        )


def gaussian_pulse() -> ManufacturedSolution:
    """The travelling Gaussian with center 0.3 + 0.4 t^2 in both coordinates."""
    s = SHARPNESS

    def parts(t, x, y):
        c = 0.3 + 0.4 * t * t
        X = x - c
        Y = y - c
        return X, Y, np.exp(-s * (X * X + Y * Y))

    def velocity(t, X, Y, g):
        return 2.0 * s * 0.8 * t * (X + Y) * g

    def gradient(X, Y, g):
        return -2.0 * s * X * g, -2.0 * s * Y * g

    def u(t, x, y):
        return parts(t, x, y)[2]

    def dudt(t, x, y):
        return velocity(t, *parts(t, x, y))

    def grad_u(t, x, y):
        return gradient(*parts(t, x, y))

    def grad_dudt(t, x, y):
        X, Y, g = parts(t, x, y)
        cdot = 0.8 * t
        gx = 2.0 * s * cdot * g * (1.0 - 2.0 * s * X * (X + Y))
        gy = 2.0 * s * cdot * g * (1.0 - 2.0 * s * Y * (X + Y))
        return gx, gy

    def f(t, x, y):
        X, Y, g = parts(t, x, y)
        cdot = 0.8 * t
        cddot = 0.8
        # u_tt = (h' + h^2) u with h = 2 s cdot (X + Y)
        utt = (2.0 * s * cddot * (X + Y) - 4.0 * s * cdot ** 2
               + 4.0 * s * s * cdot ** 2 * (X + Y) ** 2) * g
        lap = (-4.0 * s + 4.0 * s * s * (X * X + Y * Y)) * g
        return utt - lap

    def bind(x, y):
        def at(t):
            X, Y, g = parts(t, x, y)
            return velocity(t, X, Y, g), gradient(X, Y, g)
        return at

    return ManufacturedSolution(name="gaussian", u=u, dudt=dudt, grad_u=grad_u,
                                grad_dudt=grad_dudt, f=f, bind=bind)


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

    def u(t, x, y):
        return position(t) * shape(x, y)

    def dudt(t, x, y):
        return velocity(t) * shape(x, y)

    def grad_u(t, x, y):
        return scaled(position(t), grad_shape(x, y))

    def grad_dudt(t, x, y):
        return scaled(velocity(t), grad_shape(x, y))

    def f(t, x, y):
        return np.zeros(np.broadcast(np.asarray(x), np.asarray(y)).shape)

    def bind(x, y):
        s, g = shape(x, y), grad_shape(x, y)
        out = [None, None, None]   # allocated by the first call, overwritten by the next

        def at(t):
            a = position(t)
            out[0] = np.multiply(velocity(t), s, out=out[0])
            out[1] = np.multiply(a, g[0], out=out[1])
            out[2] = np.multiply(a, g[1], out=out[2])
            return out[0], (out[1], out[2])
        return at

    return ManufacturedSolution(name=f"mode({kx},{ky})", u=u, dudt=dudt, grad_u=grad_u,
                                grad_dudt=grad_dudt, f=f, bind=bind, zero_forcing=True)


def get_solution(name: str) -> ManufacturedSolution:
    """The solution named 'gaussian' (the pulse) or 'mode' (the standing mode)."""
    if name == "gaussian":
        return gaussian_pulse()
    if name == "mode":
        return standing_mode()
    raise ValueError(f"unknown manufactured solution {name!r}")
