"""Finite-difference operators in time on non-uniform grids.

All operators act on short windows of consecutive values.  A "value" may be
a float or a numpy array (nodal coefficients of a finite element function);
every formula below is a linear combination, so both work unchanged.  Steps
and times may be arrays too: the window ``(w[:-2], w[1:-1], w[2:])`` with
steps ``(tau[:-1], tau[1:])`` evaluates a stencil at every interior node of a
whole trajectory at once.

Conventions for a window ``w[0..m]`` with steps ``tau[k] = t[k+1] - t[k]``:

* ``second_diff`` needs 3 values and 2 steps and approximates w'' at the
  middle point,
* ``bar_average`` needs 3 values and 2 steps (a step-weighted average),
* ``hat_second_diff`` acts on 3 values attached to the staggered times
  ``that[m] = (t[m+1] + t[m-1]) / 2``,
* ``fourth_diff`` composes the two: it needs 5 values and 4 steps and on a
  uniform grid reduces to the classical (1, -4, 6, -4, 1) / tau^4 stencil,
* ``step_weight`` and ``initial_weight`` are the time weights both time
  estimators put on their per-node payloads; ``eta3_increments`` and
  ``eta5_increments`` apply them, for the scalar model and the wave problem
  alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def second_diff(w, tau):
    """Divided second difference of three consecutive values.

    Returns ((w2 - w1)/tau1 - (w1 - w0)/tau0) / ((tau0 + tau1)/2), i.e. the
    standard three-point approximation of the second derivative at the middle
    node.  Annihilates sequences sampled from affine functions and returns
    exactly 2 for samples of t^2, whatever the steps.
    """
    if len(w) != 3 or len(tau) != 2:
        raise ValueError("second_diff needs 3 values and 2 steps")
    tau0, tau1 = tau
    if np.any(tau0 <= 0) or np.any(tau1 <= 0):
        raise ValueError("steps must be positive")
    half = 0.5 * (tau0 + tau1)
    return ((w[2] - w[1]) / tau1 - (w[1] - w[0]) / tau0) / half


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


def hat_times(t):
    """Staggered times (t[m+1] + t[m-1])/2 for the interior nodes of t."""
    t = np.asarray(t, dtype=float)
    if len(t) < 3:
        raise ValueError("need at least 3 time points")
    return 0.5 * (t[2:] + t[:-2])


def hat_second_diff(w, that):
    """Second difference of three values attached to staggered times.

    ``that`` holds the three staggered time points the values live on; the
    divided-difference normalisation uses those spacings, not the original
    steps.
    """
    if len(w) != 3 or len(that) != 3:
        raise ValueError("hat_second_diff needs 3 values and 3 staggered times")
    h1 = that[1] - that[0]
    h2 = that[2] - that[1]
    if np.any(h1 <= 0) or np.any(h2 <= 0):
        raise ValueError("staggered times must be increasing")
    return 2.0 / (that[2] - that[0]) * ((w[2] - w[1]) / h2 - (w[1] - w[0]) / h1)


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


def step_weight(tau_k, tau_km1):
    """Weight tau_k^2/12 + tau_{k-1} tau_k/8 of the payload at an interior node t_k."""
    return tau_k ** 2 / 12.0 + tau_km1 * tau_k / 8.0


def initial_weight(tau0, tau1):
    """Weight 5/12 tau_0^2 + tau_1 tau_0/2 of the initial-slab term, which reuses the t_1 payload."""
    return 5.0 * tau0 ** 2 / 12.0 + tau1 * tau0 / 2.0


def eta3_increments(tau, payload):
    """Per-step increments tau_k eta_T(t_k), k = 0..N-1, of the 3-point time estimator.

    ``tau`` holds the N steps and ``payload`` the estimator's payloads at the
    interior nodes t_1..t_{N-1}.  Entry k >= 1 is tau_k step_weight * payload_k;
    entry 0, the initial slab, puts the t_1 payload under ``initial_weight``.
    """
    tau = np.asarray(tau, dtype=float)
    payload = np.asarray(payload, dtype=float)
    if len(tau) < 2:
        raise ValueError("the 3-point estimator needs at least 2 steps")
    if len(payload) != len(tau) - 1:
        raise ValueError("the 3-point estimator needs one payload per interior node")
    out = np.empty(len(tau))
    out[0] = tau[0] * initial_weight(tau[0], tau[1]) * payload[0]
    out[1:] = tau[1:] * step_weight(tau[1:], tau[:-1]) * payload
    return out


def eta5_increments(tau, payload):
    """Per-step increments tau_k eta-hat_T(t_k), k = 3..N-1, of the 5-point time estimator.

    ``payload`` holds the payloads at t_3..t_{N-1}: the fourth difference
    needs five time levels, so the estimator has no term before t_3.
    """
    tau = np.asarray(tau, dtype=float)
    payload = np.asarray(payload, dtype=float)
    if len(tau) < 4:
        raise ValueError("the 5-point estimator needs at least 4 steps")
    if len(payload) != len(tau) - 3:
        raise ValueError("the 5-point estimator needs one payload per node from t_3 on")
    return tau[3:] * step_weight(tau[3:], tau[2:-1]) * payload


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
