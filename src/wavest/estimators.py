"""A posteriori error estimators for the Newmark wave solution.

Three estimators are computed from sliding windows of discrete states:

* the 3-point time estimator: weight (tau_k^2/12 + tau_{k-1} tau_k/8) on a
  payload built from |d2_k v|_H1 and ||d2_k f - z_k||_L2, where z_k is the
  discrete Laplacian of d2_k u (one auxiliary mass solve per step);
* the 5-point time estimator: same weight on |d2_k v|_H1 and ||d4_k u||_L2,
  no auxiliary solve;
* the two-part residual space estimator: element residuals weighted by h_K^2
  plus normal-gradient jumps weighted by h_E, a max-in-time part and a
  time-integrated part.

Payloads combine their two norm terms as sqrt(a^2 + b^2) by default ("rms"),
which matches the scalar-model form of the estimates and the energy norm;
a mixed-exponent variant ("literal": the 3-point form puts an unsquared H1
term and a squared L2 term under one root, the 5-point form takes a plain
sum) is selectable for comparison.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .fem import FemSpace, SolveCounter
from .newmark import WaveState
from .stencils import hat_second_diff, initial_weight, second_diff, step_weight

__all__ = [
    "EstimatorSample", "EstimatorReport", "NodeDiffs", "WaveEstimatorAccumulator",
    "SpaceEstimatorAccumulator", "node_diffs", "eta3_step", "eta5_step",
    "PAYLOAD_FORMS",
]

PAYLOAD_FORMS = ("rms", "literal")


def _combine(h1_term, l2_term, form):
    if form == "rms":
        return float(np.hypot(h1_term, l2_term))
    if form == "literal":
        # mixed-exponent 3-point form: (|.|_H1 + ||.||_L2^2)^(1/2)
        return float(np.sqrt(h1_term + l2_term ** 2))
    raise ValueError(f"unknown payload form {form!r}")


def _combine5(h1_term, l2_term, form):
    if form == "rms":
        return float(np.hypot(h1_term, l2_term))
    if form == "literal":
        # mixed 5-point form: plain sum, no root
        return float(h1_term + l2_term)
    raise ValueError(f"unknown payload form {form!r}")


@dataclass(frozen=True)
class EstimatorSample:
    """One per-step estimator evaluation: t_k, the weight, and the weighted value."""

    t: float
    weight: float
    value: float  # weight * payload

    def __post_init__(self):
        if self.value < 0 or self.weight < 0:
            raise ValueError("estimator samples are non-negative")


@dataclass(frozen=True)
class NodeDiffs:
    """Second differences in time at one interior node t_k, shared by all three estimators."""

    t: float          # t_k
    that: float       # staggered time (t_{k+1} + t_{k-1}) / 2
    tau_prev: float   # tau_{k-1} = t_k - t_{k-1}
    tau: float        # tau_k = t_{k+1} - t_k
    d2u: np.ndarray   # free vertices
    d2v: np.ndarray   # all vertices (zero on the boundary)
    d2f: np.ndarray   # all vertices
    d2v_h1: float     # |d2_k v|_H1


def node_diffs(space: FemSpace, states) -> NodeDiffs:
    """Second differences of u, v and f_h over three consecutive states, and |d2 v|_H1."""
    s0, s1, s2 = states
    tau = (s1.t - s0.t, s2.t - s1.t)
    d2u = second_diff([s.u for s in states], tau)
    d2v = space.full(second_diff([s.v for s in states], tau))
    d2f = second_diff([s.f_h for s in states], tau)
    return NodeDiffs(t=s1.t, that=0.5 * (s2.t + s0.t), tau_prev=tau[0], tau=tau[1],
                     d2u=d2u, d2v=d2v, d2f=d2f, d2v_h1=space.h1_seminorm(d2v))


def eta3_step(space: FemSpace, node: NodeDiffs,
              counter: Optional[SolveCounter] = None,
              payload_form="rms") -> EstimatorSample:
    """3-point estimator sample at an interior node.

    Performs exactly one mass solve (for the discrete Laplacian of d2_k u).
    """
    z = space.apply_discrete_laplacian(node.d2u, counter=counter)
    resid = node.d2f - space.full(z)
    payload = _combine(node.d2v_h1, space.l2_norm(resid), payload_form)
    w = step_weight(node.tau, node.tau_prev)
    return EstimatorSample(t=node.t, weight=w, value=w * payload)


def eta5_step(space: FemSpace, nodes, payload_form="rms") -> EstimatorSample:
    """5-point estimator sample at the last of three consecutive interior nodes.

    Performs no linear solve: the fourth difference of u is the staggered
    second difference of the three nodes' d2 u on their staggered times; the
    velocity term is the last node's.
    """
    d4u = hat_second_diff([n.d2u for n in nodes], [n.that for n in nodes])
    node = nodes[-1]
    payload = _combine5(node.d2v_h1, space.l2_norm(space.full(d4u)), payload_form)
    w = step_weight(node.tau, node.tau_prev)
    return EstimatorSample(t=node.t, weight=w, value=w * payload)


# -- edge jumps and the space estimator --------------------------------------


@dataclass
class SpaceEstimatorAccumulator:
    """Online accumulation of the two space-estimator parts over interior nodes.

    Fed with the 3 states around each interior node n = 1..N-1 and that
    node's second differences:
    part 1 is the max over n of [sum_K h_K^2 ||dbar_n v - f_n||_K^2
    + sum_E h_E ||[n . grad u_n]||_E^2]^(1/2) with the central difference
    dbar_n; part 2 integrates the same shape built from second differences
    of v, central differences of f and of u.

    ``jump`` is the operator J, assembled once, from all-vertex values to
    h_E [n . grad u]_E on every interior edge, so the jump sum is ||J u||^2.
    """

    space: FemSpace
    part1_max: float = 0.0
    part2_sum: float = 0.0
    samples: int = 0
    jump: sp.csr_matrix = field(init=False, repr=False)  # (interior edges, vertices)

    def __post_init__(self):
        # row E: h_E times the normal components of the hat gradients on the
        # left triangle minus those on the right; the two shared vertices
        # merge, leaving 4 non-zeros per row
        mesh = self.space.mesh
        grads = self.space.grads
        left, right = mesh.edge_tris[:, 0], mesh.edge_tris[:, 1]
        normal = (mesh.edge_normals * mesh.edge_lengths[:, None])[:, :, None]
        data = np.concatenate([grads[left] @ normal, -(grads[right] @ normal)], axis=1)
        indices = np.concatenate([mesh.triangles[left], mesh.triangles[right]], axis=1)
        ne = len(left)
        self.jump = sp.csr_matrix((data.ravel(), indices.ravel().astype(np.int32),
                                   6 * np.arange(ne + 1, dtype=np.int32)),
                                  shape=(ne, mesh.n_vertices))
        self.jump.sum_duplicates()

    def _part(self, residual, u) -> float:
        """sum_K h_K^2 ||residual||_{L2(K)}^2 + ||J u||^2."""
        vol = np.sum(self.space.mesh.h_K ** 2 * self.space.element_l2_sq(residual))
        ju = self.jump @ u
        return float(vol + ju @ ju)

    def update(self, states, node: NodeDiffs):
        s0, s1, s2 = states
        full = self.space.full
        central = node.tau_prev + node.tau
        v_c = full((s2.v - s0.v) / central)
        p1 = self._part(v_c - s1.f_h, full(s1.u))
        self.part1_max = max(self.part1_max, np.sqrt(p1))
        f_c = (s2.f_h - s0.f_h) / central
        u_c = full((s2.u - s0.u) / central)
        p2 = self._part(node.d2v - f_c, u_c)
        self.part2_sum += node.tau * np.sqrt(p2)
        self.samples += 1

    @property
    def parts(self):
        return self.part1_max, self.part2_sum

    @property
    def total(self):
        return self.part1_max + self.part2_sum


@dataclass
class EstimatorReport:
    """Cumulative estimator state after a run."""

    eta3_total: float = 0.0
    eta5_total: float = 0.0
    eta3_samples: list = field(default_factory=list)
    eta5_samples: list = field(default_factory=list)
    space_part1: float = 0.0
    space_part2: float = 0.0
    eta3_counter: SolveCounter = field(default_factory=SolveCounter)
    eta5_counter: SolveCounter = field(default_factory=SolveCounter)

    @property
    def eta_space(self):
        return self.space_part1 + self.space_part2


class WaveEstimatorAccumulator:
    """Consumes the state stream and accumulates all three estimators online.

    The 3-point cumulative total is tau_0 * eta_T(t_0) + sum_{k>=1} tau_k *
    eta_T(t_k); the 5-point total starts at k = 3.  Retains the last 3
    states and the second differences of the last 3 interior nodes, each
    computed once.  States must come in time order: the second differences
    reject a non-positive step.
    """

    def __init__(self, space: FemSpace, payload_form="rms"):
        if payload_form not in PAYLOAD_FORMS:
            raise ValueError(f"payload_form must be one of {PAYLOAD_FORMS}")
        self.space = space
        self.payload_form = payload_form
        self.states = deque(maxlen=3)
        self.nodes = deque(maxlen=3)
        self.report = EstimatorReport()
        self.space_acc = SpaceEstimatorAccumulator(space)

    def push(self, state: WaveState):
        states = self.states
        states.append(state)
        if len(states) < 3:
            return
        node = node_diffs(self.space, states)
        self.nodes.append(node)
        rep = self.report
        sample = eta3_step(self.space, node, counter=rep.eta3_counter,
                           payload_form=self.payload_form)
        rep.eta3_samples.append(sample)
        rep.eta3_total += node.tau * sample.value
        if len(rep.eta3_samples) == 1:
            # initial-slab contribution, weighted by tau_0: the t_1 payload
            # under the first-step weight
            payload = sample.value / sample.weight
            w0 = initial_weight(node.tau_prev, node.tau)
            init = EstimatorSample(t=states[0].t, weight=w0, value=w0 * payload)
            rep.eta3_total += node.tau_prev * init.value
            rep.eta3_samples.insert(0, init)
        self.space_acc.update(states, node)
        rep.space_part1, rep.space_part2 = self.space_acc.parts
        if len(self.nodes) == 3:
            sample = eta5_step(self.space, self.nodes, payload_form=self.payload_form)
            rep.eta5_samples.append(sample)
            rep.eta5_total += node.tau * sample.value

    @property
    def eta3_total(self):
        return self.report.eta3_total

    @property
    def eta5_total(self):
        return self.report.eta5_total

    @property
    def eta_space(self):
        return self.report.eta_space
