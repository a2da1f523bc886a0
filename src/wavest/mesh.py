"""Conforming 2D triangulations with interior-edge adjacency.

Meshes are immutable after construction.  Interior edges are stored as
parallel arrays (endpoints, adjacent triangles, lengths, unit normals) so the
jump terms of the space estimator vectorise.

Text format (one mesh per payload):
    line 1:        nv nt
    next nv lines: x y b          (b = 1 for boundary vertices, else 0)
    next nt lines: i j k          (zero-based vertex indices)
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np


class MeshError(ValueError):
    """Raised for topologically or geometrically invalid meshes."""


@dataclass(frozen=True)
class Mesh:
    """Triangulation of a polygonal domain with precomputed edge adjacency."""

    vertices: np.ndarray        # (nv, 2)
    triangles: np.ndarray       # (nt, 3) CCW
    boundary_vertex: np.ndarray  # (nv,) bool
    # interior edge arrays, filled in __post_init__
    edge_vertices: np.ndarray = field(init=False)   # (ne, 2)
    edge_tris: np.ndarray = field(init=False)       # (ne, 2) left, right
    edge_lengths: np.ndarray = field(init=False)    # (ne,)
    edge_normals: np.ndarray = field(init=False)    # (ne, 2) oriented left -> right
    h_K: np.ndarray = field(init=False)             # (nt,) longest edge per triangle
    areas: np.ndarray = field(init=False)           # (nt,)
    min_angle: float = field(init=False)

    def __post_init__(self):
        verts = np.asarray(self.vertices, dtype=float)
        tris = np.asarray(self.triangles, dtype=np.int64)
        bnd = np.asarray(self.boundary_vertex, dtype=bool)
        if verts.ndim != 2 or verts.shape[1] != 2:
            raise MeshError("vertices must be an (nv, 2) array")
        if tris.ndim != 2 or tris.shape[1] != 3:
            raise MeshError("triangles must be an (nt, 3) array")
        if len(bnd) != len(verts):
            raise MeshError("need one boundary flag per vertex")
        if tris.min(initial=0) < 0 or tris.max(initial=-1) >= len(verts):
            raise MeshError("triangle vertex index out of range")
        used = np.zeros(len(verts), dtype=bool)
        used[tris.ravel()] = True
        if not used.all():
            raise MeshError(f"dangling vertices: {np.flatnonzero(~used).tolist()}")

        p0, p1, p2 = verts[tris[:, 0]], verts[tris[:, 1]], verts[tris[:, 2]]
        signed = 0.5 * ((p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1])
                        - (p2[:, 0] - p0[:, 0]) * (p1[:, 1] - p0[:, 1]))
        if np.any(signed == 0):
            raise MeshError("degenerate (zero-area) triangle")
        if np.any(signed < 0):
            raise MeshError("triangles must be counter-clockwise; use import_mesh to reorient")

        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "triangles", tris)
        object.__setattr__(self, "boundary_vertex", bnd)
        object.__setattr__(self, "areas", signed)

        edges = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
        lengths = np.linalg.norm(verts[edges[:, 1]] - verts[edges[:, 0]], axis=1)
        object.__setattr__(self, "h_K", lengths.reshape(3, -1).max(axis=0))

        ev, et = build_edges(verts, tris)
        vec = verts[ev[:, 1]] - verts[ev[:, 0]]
        elen = np.linalg.norm(vec, axis=1)
        # normal perpendicular to the edge, oriented from left_tri to right_tri
        normal = np.column_stack([vec[:, 1], -vec[:, 0]]) / elen[:, None]
        centroids = verts[tris].mean(axis=1)
        to_right = centroids[et[:, 1]] - centroids[et[:, 0]]
        flip = np.sum(normal * to_right, axis=1) < 0
        normal[flip] *= -1.0
        object.__setattr__(self, "edge_vertices", ev)
        object.__setattr__(self, "edge_tris", et)
        object.__setattr__(self, "edge_lengths", elen)
        object.__setattr__(self, "edge_normals", normal)

        # Euler relation for simply connected domains: V - E + F = 1
        n_all_edges = len(np.unique(np.sort(edges, axis=1), axis=0))
        euler = len(verts) - n_all_edges + len(tris)
        if euler != 1:
            raise MeshError(f"Euler characteristic V-E+F = {euler}, expected 1")

        sides = lengths.reshape(3, -1)
        a, b, c = sides[0], sides[1], sides[2]
        angles = []
        for opp, e1, e2 in ((a, b, c), (b, c, a), (c, a, b)):
            cosang = np.clip((e1 ** 2 + e2 ** 2 - opp ** 2) / (2 * e1 * e2), -1.0, 1.0)
            angles.append(np.arccos(cosang))
        object.__setattr__(self, "min_angle", float(np.min(angles)))

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_triangles(self):
        return len(self.triangles)

    @property
    def h(self):
        return float(self.h_K.max())

    @property
    def free_vertices(self):
        return np.flatnonzero(~self.boundary_vertex)


def build_edges(vertices, triangles):
    """Interior-edge arrays (endpoints, adjacent triangle pair) of a triangulation.

    Rejects non-manifold input (an edge shared by more than two triangles).
    The result is independent of the per-triangle vertex ordering.
    """
    tris = np.asarray(triangles, dtype=np.int64)
    edges = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    owner = np.tile(np.arange(len(tris)), 3)
    key = np.sort(edges, axis=1)
    uniq, inverse, counts = np.unique(key, axis=0, return_inverse=True, return_counts=True)
    if counts.max(initial=0) > 2:
        bad = uniq[np.argmax(counts)]
        raise MeshError(f"non-manifold edge {tuple(bad)} shared by {counts.max()} triangles")
    interior = counts == 2
    order = np.argsort(inverse, kind="stable")
    sorted_inverse = inverse[order]
    sorted_owner = owner[order]
    first = np.searchsorted(sorted_inverse, np.arange(len(uniq)), side="left")
    ev_list, et_list = [], []
    for e in np.flatnonzero(interior):
        tri_pair = sorted_owner[first[e]:first[e] + 2]
        ev_list.append(uniq[e])
        et_list.append(sorted(tri_pair))
    if ev_list:
        return np.asarray(ev_list), np.asarray(et_list)
    return np.empty((0, 2), dtype=np.int64), np.empty((0, 2), dtype=np.int64)


def generate_structured(n, pattern="diagonal"):
    """Structured unit-square mesh: 2n^2 (diagonal) or 4n^2 (crisscross) triangles."""
    if n < 1:
        raise ValueError("subdivision count must be at least 1")
    if pattern not in ("diagonal", "crisscross"):
        raise ValueError("pattern must be 'diagonal' or 'crisscross'")
    xs = np.linspace(0.0, 1.0, n + 1)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    verts = np.column_stack([gx.ravel(), gy.ravel()])

    def vid(i, j):
        return i * (n + 1) + j

    tris = []
    if pattern == "diagonal":
        for i in range(n):
            for j in range(n):
                v00, v10 = vid(i, j), vid(i + 1, j)
                v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
                tris.append((v00, v10, v11))
                tris.append((v00, v11, v01))
    else:
        centers = []
        for i in range(n):
            for j in range(n):
                centers.append([(xs[i] + xs[i + 1]) / 2, (xs[j] + xs[j + 1]) / 2])
        verts = np.vstack([verts, np.asarray(centers)])
        for i in range(n):
            for j in range(n):
                c = (n + 1) ** 2 + i * n + j
                v00, v10 = vid(i, j), vid(i + 1, j)
                v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
                tris.append((v00, v10, c))
                tris.append((v10, v11, c))
                tris.append((v11, v01, c))
                tris.append((v01, v00, c))
    tris = np.asarray(tris, dtype=np.int64)
    boundary = np.zeros(len(verts), dtype=bool)
    on_edge = (np.isclose(verts[:, 0], 0.0) | np.isclose(verts[:, 0], 1.0)
               | np.isclose(verts[:, 1], 0.0) | np.isclose(verts[:, 1], 1.0))
    boundary[on_edge] = True
    return Mesh(vertices=verts, triangles=tris, boundary_vertex=boundary)


def import_mesh(payload: str) -> Mesh:
    """Parse the line-oriented text format; clockwise triangles are reoriented."""
    tokens = payload.split()
    if len(tokens) < 2:
        raise MeshError("mesh payload too short for the count line")
    try:
        nv, nt = int(tokens[0]), int(tokens[1])
    except ValueError as exc:
        raise MeshError(f"malformed count line: {exc}") from exc
    need = 2 + 3 * nv + 3 * nt
    if len(tokens) != need:
        raise MeshError(f"expected {need} whitespace-separated fields, found {len(tokens)}")
    try:
        body = np.asarray(tokens[2:2 + 3 * nv], dtype=float).reshape(nv, 3)
    except ValueError as exc:
        raise MeshError(f"malformed vertex line: {exc}") from exc
    verts = body[:, :2]
    bflag = body[:, 2]
    if not np.all(np.isin(bflag, (0.0, 1.0))):
        raise MeshError("boundary flags must be 0 or 1")
    try:
        tris = np.asarray(tokens[2 + 3 * nv:], dtype=np.int64).reshape(nt, 3)
    except ValueError as exc:
        raise MeshError(f"malformed triangle line: {exc}") from exc

    p0, p1, p2 = verts[tris[:, 0]], verts[tris[:, 1]], verts[tris[:, 2]]
    signed = 0.5 * ((p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1])
                    - (p2[:, 0] - p0[:, 0]) * (p1[:, 1] - p0[:, 1]))
    cw = signed < 0
    if np.any(cw):
        warnings.warn(f"reoriented {int(cw.sum())} clockwise triangle(s)", stacklevel=2)
        tris[cw] = tris[cw][:, [0, 2, 1]]
    return Mesh(vertices=verts, triangles=tris, boundary_vertex=bflag.astype(bool))


def format_mesh(mesh: Mesh) -> str:
    """Serialise a mesh to the text format accepted by import_mesh."""
    lines = [f"{mesh.n_vertices} {mesh.n_triangles}"]
    for (x, y), b in zip(mesh.vertices, mesh.boundary_vertex):
        lines.append(f"{float(x)!r} {float(y)!r} {int(b)}")
    for i, j, k in mesh.triangles:
        lines.append(f"{i} {j} {k}")
    return "\n".join(lines) + "\n"


def read_mesh(path) -> Mesh:
    with open(path, "r", encoding="ascii") as fh:
        return import_mesh(fh.read())
