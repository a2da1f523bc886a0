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

The jump operator is built on the interior edges of the mesh's edge table
(those with a second side): each edge's h_E-scaled normal is its edge
vector turned by 90 degrees, in no particular orientation (J u is read only
squared), and J stores exactly the 4 non-zeros of each row.  The estimator
window keeps the full second differences of its newest node only; the two
older nodes keep what the 5-point estimator reads of them, d2 u and the
staggered time.

A problem without forcing carries no projection of f (``WaveState.f_h`` is
None): its nodes have no d2 f, and the 3-point residual and the space
estimator's volume residuals skip the forcing terms, which would be zeros.
J is built through ``fem.sparse``, and the space estimator's h_K^2-weighted
mass matrix M_h is the space's (``FemSpace.h_mass``), so this module
imports no scipy of its own.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Optional

import numpy as np

from .fem import QUAD_BLOCK, FemSpace, SolveCounter, sparse
from .newmark import WaveState
from .stencils import eta3_increments, eta5_increments, hat_second_diff, second_diff

__all__ = [
    "NodeDiffs", "WaveEstimatorAccumulator", "SpaceEstimatorAccumulator", "node_diffs",
    "eta3_step", "eta5_step",
]


@dataclass(frozen=True)
class NodeDiffs:
    """Second differences in time at one interior node t_k, shared by all three estimators.

    In the estimator window's two older nodes ``d2v`` and ``d2f`` are None,
    and ``d2f`` is None at every node of a problem without forcing.
    """

    that: float       # staggered time (t_{k+1} + t_{k-1}) / 2
    tau_prev: float   # tau_{k-1} = t_k - t_{k-1}
    tau: float        # tau_k = t_{k+1} - t_k
    d2u: np.ndarray             # free vertices
    d2v: Optional[np.ndarray]   # all vertices (zero on the boundary)
    d2f: Optional[np.ndarray]   # all vertices
    d2v_h1: float               # |d2_k v|_H1


def node_diffs(space: FemSpace, states) -> NodeDiffs:
    """Second differences of u, v and f_h (none without forcing) over three states, and |d2 v|_H1."""
    s0, s1, s2 = states
    tau = (s1.t - s0.t, s2.t - s1.t)
    d2u = second_diff([s.u for s in states], tau)
    d2v = second_diff([s.v for s in states], tau)
    d2f = None if s1.f_h is None else second_diff([s.f_h for s in states], tau)
    return NodeDiffs(that=0.5 * (s2.t + s0.t), tau_prev=tau[0], tau=tau[1], d2u=d2u,
                     d2v=space.full(d2v), d2f=d2f, d2v_h1=space.h1_seminorm(d2v))


def eta3_step(space: FemSpace, node: NodeDiffs, counter: Optional[SolveCounter] = None) -> float:
    """3-point estimator payload at an interior node.

    Performs exactly one mass solve (for the discrete Laplacian of d2_k u).
    """
    z = space.full(space.apply_discrete_laplacian(node.d2u, counter=counter))
    resid = z if node.d2f is None else node.d2f - z   # the norm of -z is that of z
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


def scaled_edge_normals(vertices, edge_vertices) -> np.ndarray:
    """h_E times a unit normal of each edge (endpoint pairs): the edge vector turned by 90 degrees.

    Its sign is that of the edge's vertex order; the estimator reads the
    jumps only squared, so no edge needs orienting.
    """
    vec = vertices[edge_vertices[:, 1]] - vertices[edge_vertices[:, 0]]
    return np.column_stack([vec[:, 1], -vec[:, 0]])


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
    h_E [n . grad u]_E on every interior edge, so the jump sum is ||J u||^2;
    each row holds its 4 non-zeros in ascending column order.  The volume
    sum is r . (M_h r) with the space's ``h_mass``, M_h, the mass matrix
    with each triangle's contribution scaled by h_K^2.
    """

    space: FemSpace
    part1_max: float = field(init=False, default=0.0)
    part2_sum: float = field(init=False, default=0.0)
    jump: Any = field(init=False, repr=False)    # CSR, (interior edges, vertices)

    def __post_init__(self):
        # row E: h_E times the normal components of the hat gradients on the
        # triangle of the edge's first side minus those on its second side's;
        # the two shared vertices merge, leaving 4 non-zeros per row.  Built
        # QUAD_BLOCK edges at a time into buffers of exactly 4 entries per row.
        sp = sparse()
        mesh, grads, tris = self.space.mesh, self.space.grads, self.space.mesh.triangles
        # the interior edges' rows by np.take: a fancy or boolean row index is 15-20 times slower
        interior = np.flatnonzero(mesh.edge_sides[:, 1] >= 0)
        owners = np.take(mesh.edge_sides, interior, axis=0) % mesh.n_triangles
        normals = scaled_edge_normals(mesh.vertices,
                                      np.take(mesh.edge_vertices, interior, axis=0))[:, :, None]
        ne = len(normals)
        data, indices = np.empty(4 * ne), np.empty(4 * ne, dtype=np.int32)
        for lo in range(0, ne, QUAD_BLOCK):
            edges = slice(lo, min(lo + QUAD_BLOCK, ne))
            left, right = owners[edges].T
            normal = normals[edges]
            rows = sp.csr_matrix(
                (np.concatenate([grads[left] @ normal, -(grads[right] @ normal)], axis=1).ravel(),
                 np.concatenate([tris[left], tris[right]], axis=1).ravel().astype(np.int32),
                 np.arange(0, 6 * len(left) + 1, 6, dtype=np.int32)),
                shape=(len(left), mesh.n_vertices))
            rows.sum_duplicates()
            data[4 * lo:4 * edges.stop], indices[4 * lo:4 * edges.stop] = rows.data, rows.indices
        self.jump = sp.csr_matrix((data, indices, np.arange(0, 4 * ne + 1, 4, dtype=np.int32)),
                                  shape=(ne, mesh.n_vertices))

    def _part(self, residual, u) -> float:
        """sum_K h_K^2 ||residual||_{L2(K)}^2 + ||J u||^2."""
        ju = self.jump @ u
        return float(residual @ (self.space.h_mass @ residual) + ju @ ju)

    def update(self, states, node: NodeDiffs):
        s0, s1, s2 = states
        full = self.space.full
        central = node.tau_prev + node.tau
        v_c = full((s2.v - s0.v) / central)
        forced = s1.f_h is not None
        p1 = self._part(v_c - s1.f_h if forced else v_c, full(s1.u))
        self.part1_max = max(self.part1_max, np.sqrt(p1))
        u_c = full((s2.u - s0.u) / central)
        p2 = self._part(node.d2v - (s2.f_h - s0.f_h) / central if forced else node.d2v, u_c)
        self.part2_sum += node.tau * np.sqrt(p2)

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
    of the last 3 interior nodes, each computed once; of the two older
    nodes only what ``eta5_step`` reads is kept.  States must come in time
    order: the second differences reject a non-positive step.
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
        self.nodes[-1] = replace(node, d2v=None, d2f=None)

    def increments(self):
        """Per-step increments of the 3-point (k = 0..N-1) and 5-point (k = 3..N-1) estimators."""
        tau = np.diff(self.times)
        return eta3_increments(tau, self.eta3_payloads), eta5_increments(tau, self.eta5_payloads)
