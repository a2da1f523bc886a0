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
* ``hat_second_diff`` acts on 3 values attached to the staggered times
  ``that[m] = (t[m+1] + t[m-1]) / 2`` (``hat_times``); applied to three
  consecutive second differences it gives the 5-point estimator's fourth
  difference, which on a uniform grid reduces to the classical
  (1, -4, 6, -4, 1) / tau^4 stencil,
* ``step_weight`` and ``initial_weight`` are the time weights both time
  estimators put on their per-node payloads; ``eta3_increments`` and
  ``eta5_increments`` apply them, for the scalar model and the wave problem
  alike.
"""

from __future__ import annotations

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
