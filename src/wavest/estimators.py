"""A posteriori error estimators for the Newmark wave solution.

Three estimators are computed from sliding windows of discrete states:

* the 3-point time estimator: its payload at an interior node t_k combines
  |d2_k v|_H1 and ||d2_k f - z_k||_L2, where z_k is the discrete Laplacian
  of d2_k u (one auxiliary mass solve per step);
* the 5-point time estimator: its payload combines |d2_k v|_H1 and
  ||d4_k u||_L2, with no auxiliary solve;
* the two-part residual space estimator: element residuals weighted by h_K^2
  plus normal-gradient jumps weighted by h_E, a max-in-time part and a
  time-integrated part.

Each payload is sqrt(a^2 + b^2) of its two norm terms, the energy-norm form
of the scalar model's payloads.  The time weights, the initial slab and the
running sums are shared with the scalar model (``stencils.eta3_increments``/
``eta5_increments``): the accumulator here only collects payloads.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .fem import FemSpace, SolveCounter
from .newmark import WaveState
from .stencils import eta3_increments, eta5_increments, hat_second_diff, second_diff

__all__ = [
    "NodeDiffs", "WaveEstimatorAccumulator", "SpaceEstimatorAccumulator", "node_diffs",
    "eta3_step", "eta5_step",
]


@dataclass(frozen=True)
class NodeDiffs:
    """Second differences in time at one interior node t_k, shared by all three estimators."""

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
    return NodeDiffs(that=0.5 * (s2.t + s0.t), tau_prev=tau[0], tau=tau[1], d2u=d2u,
                     d2v=d2v, d2f=d2f, d2v_h1=space.h1_seminorm(d2v))


def eta3_step(space: FemSpace, node: NodeDiffs, counter: Optional[SolveCounter] = None) -> float:
    """3-point estimator payload at an interior node.

    Performs exactly one mass solve (for the discrete Laplacian of d2_k u).
    """
    z = space.apply_discrete_laplacian(node.d2u, counter=counter)
    resid = node.d2f - space.full(z)
    return float(np.hypot(node.d2v_h1, space.l2_norm(resid)))


def eta5_step(space: FemSpace, nodes) -> float:
    """5-point estimator payload at the last of three consecutive interior nodes.

    Performs no linear solve: the fourth difference of u is the staggered
    second difference of the three nodes' d2 u on their staggered times; the
    velocity term is the last node's.
    """
    d4u = hat_second_diff([n.d2u for n in nodes], [n.that for n in nodes])
    return float(np.hypot(nodes[-1].d2v_h1, space.l2_norm(space.full(d4u))))


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
    part1_max: float = field(init=False, default=0.0)
    part2_sum: float = field(init=False, default=0.0)
    samples: int = field(init=False, default=0)
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


class WaveEstimatorAccumulator:
    """Consumes the state stream and accumulates all three estimators online.

    Keeps the state times, each time estimator's payloads and the space
    estimator's running parts; ``increments`` weights the payloads as the
    scalar model does.  Retains the last 3 states and the second differences
    of the last 3 interior nodes, each computed once.  States must come in
    time order: the second differences reject a non-positive step.
    """

    def __init__(self, space: FemSpace):
        self.space = space
        self.states = deque(maxlen=3)
        self.nodes = deque(maxlen=3)
        self.times = []
        self.eta3_payloads = []
        self.eta5_payloads = []
        self.aux_counter = SolveCounter()  # the 3-point estimator's mass solves
        self.space_acc = SpaceEstimatorAccumulator(space)

    def push(self, state: WaveState):
        self.times.append(state.t)
        states = self.states
        states.append(state)
        if len(states) < 3:
            return
        node = node_diffs(self.space, states)
        self.nodes.append(node)
        self.eta3_payloads.append(eta3_step(self.space, node, counter=self.aux_counter))
        self.space_acc.update(states, node)
        if len(self.nodes) == 3:
            self.eta5_payloads.append(eta5_step(self.space, self.nodes))

    def increments(self):
        """Per-step increments of the 3-point (k = 0..N-1) and 5-point (k = 3..N-1) estimators."""
        tau = np.diff(self.times)
        return eta3_increments(tau, self.eta3_payloads), eta5_increments(tau, self.eta5_payloads)
