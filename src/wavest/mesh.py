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
        if not np.all(np.isfinite(signed)):
            raise MeshError("triangle area overflows: coordinates too large")
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
        if not np.all(np.isfinite(lengths)):
            raise MeshError("triangle side length overflows: coordinates too large")
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

        # Euler relation for simply connected domains: V - E + F = 1; of the
        # 3F triangle sides, each interior edge holds two, a boundary edge one
        n_all_edges = 3 * len(tris) - len(ev)
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

    Edges are ordered by (lower, higher) endpoint and each triangle pair by
    index.  Rejects non-manifold input (an edge shared by more than two
    triangles).  The result is independent of the per-triangle vertex
    ordering.
    """
    tris = np.asarray(triangles, dtype=np.int64)
    nv = len(vertices)
    # sides (0,1), (1,2), (2,0) of every triangle, each keyed by lo * nv + hi
    a = tris.T.ravel()
    b = tris[:, [1, 2, 0]].T.ravel()
    key = np.minimum(a, b) * nv + np.maximum(a, b)
    order = np.argsort(key, kind="stable")
    key = key[order]
    owner = order % len(tris)
    first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    counts = np.diff(np.r_[first, len(key)])
    if counts.max(initial=0) > 2:
        bad = key[first[np.argmax(counts)]]
        raise MeshError(f"non-manifold edge {(int(bad // nv), int(bad % nv))} "
                        f"shared by {counts.max()} triangles")
    first = first[counts == 2]
    ev = np.column_stack([key[first] // nv, key[first] % nv])
    et = np.sort(np.column_stack([owner[first], owner[first + 1]]), axis=1)
    return ev, et


def generate_structured(n, pattern="diagonal"):
    """Structured unit-square mesh: 2n^2 (diagonal) or 4n^2 (crisscross) triangles.

    Cells are numbered row-major in (i, j) with vertex (i, j) at (x_i, x_j);
    each cell contributes its triangles consecutively.
    """
    if n < 1:
        raise ValueError("subdivision count must be at least 1")
    if pattern not in ("diagonal", "crisscross"):
        raise ValueError("pattern must be 'diagonal' or 'crisscross'")
    xs = np.linspace(0.0, 1.0, n + 1)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    verts = np.column_stack([gx.ravel(), gy.ravel()])

    cell = np.arange(n * n, dtype=np.int64)
    v00 = cell // n * (n + 1) + cell % n
    v10, v01, v11 = v00 + (n + 1), v00 + 1, v00 + (n + 2)
    if pattern == "diagonal":
        corners = [v00, v10, v11, v00, v11, v01]
    else:
        mid = (xs[:-1] + xs[1:]) / 2
        cx, cy = np.meshgrid(mid, mid, indexing="ij")
        verts = np.vstack([verts, np.column_stack([cx.ravel(), cy.ravel()])])
        c = (n + 1) ** 2 + cell
        corners = [v00, v10, c, v10, v11, c, v11, v01, c, v01, v00, c]
    tris = np.column_stack(corners).reshape(-1, 3)
    boundary = (np.isclose(verts[:, 0], 0.0) | np.isclose(verts[:, 0], 1.0)
                | np.isclose(verts[:, 1], 0.0) | np.isclose(verts[:, 1], 1.0))
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
    if nv < 0 or nt < 0:
        raise MeshError("vertex and triangle counts must be non-negative")
    need = 2 + 3 * nv + 3 * nt
    if len(tokens) != need:
        raise MeshError(f"expected {need} whitespace-separated fields, found {len(tokens)}")
    try:
        body = np.asarray(tokens[2:2 + 3 * nv], dtype=float).reshape(nv, 3)
    except ValueError as exc:
        raise MeshError(f"malformed vertex line: {exc}") from exc
    verts = body[:, :2]
    bflag = body[:, 2]
    if not np.all(np.isfinite(verts)):
        raise MeshError("vertex coordinates must be finite")
    if not np.all(np.isin(bflag, (0.0, 1.0))):
        raise MeshError("boundary flags must be 0 or 1")
    try:
        tris = np.asarray(tokens[2 + 3 * nv:], dtype=np.int64).reshape(nt, 3)
    except (ValueError, OverflowError) as exc:
        raise MeshError(f"malformed triangle line: {exc}") from exc
    # checked here because reorienting indexes the vertices before Mesh validates
    if tris.min(initial=0) < 0 or tris.max(initial=-1) >= nv:
        raise MeshError("triangle vertex index out of range")

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
