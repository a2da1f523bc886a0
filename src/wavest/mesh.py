"""Conforming 2D triangulations with one edge table.

Meshes are immutable; each triangle's area, h_K and P1 hat gradients are
computed once, at construction, from its three side vectors (1-D takes of
the x and y coordinates).  Its edge table (``build_edges``, the one sort of
triangle sides) is two int32 arrays over every edge, the endpoints and the
sides (side k of triangle t, vertex k to k + 1, as k nt + t; -1 as a boundary
edge's second), which the checks, ``fem.EdgeSlots`` and the jump operator read.

Text format (one mesh per payload):
    line 1:        nv nt
    next nv lines: x y b          (b = 1 for boundary vertices, else 0)
    next nt lines: i j k          (zero-based vertex indices)

The flags must name the topological boundary, the endpoints of the sides
that only one triangle owns; a mesh whose flags differ is rejected, as is
one whose triangles overlap (both sides of an interior edge run one way).  The
reader (``import_mesh``) frees its whitespace tokens, one Python string per
number, once their values are in arrays and before it builds the mesh, so
its peak memory is the build's.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np


class MeshError(ValueError):
    """Raised for topologically or geometrically invalid meshes."""


@dataclass(frozen=True)
class Mesh:
    """Triangulation of a polygonal domain with its edge table."""

    vertices: np.ndarray        # (nv, 2)
    triangles: np.ndarray       # (nt, 3) CCW
    boundary_vertex: np.ndarray  # (nv,) bool
    # the edge table over every edge, int32, filled in __post_init__
    edge_vertices: np.ndarray = field(init=False)   # (ne, 2) lower, higher
    edge_sides: np.ndarray = field(init=False)      # (ne, 2) k nt + t, -1 if none
    h_K: np.ndarray = field(init=False)             # (nt,) longest edge per triangle
    areas: np.ndarray = field(init=False)           # (nt,)
    grads: np.ndarray = field(init=False)           # (nt, 3, 2) P1 hat gradients
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

        # side k of a triangle runs from its vertex k to vertex k + 1, (3, nt) per axis
        ex, ey = _side_vectors(verts, tris)
        signed = _signed_areas(ex, ey)
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

        sides = np.sqrt(ex * ex + ey * ey)
        if not np.all(np.isfinite(sides)):
            raise MeshError("triangle side length overflows: coordinates too large")
        object.__setattr__(self, "h_K", sides.max(axis=0))
        # grads[t, i]: the constant gradient of the hat of local vertex i on
        # triangle t, the side opposite i (side i + 1) turned by 90 degrees, over 2 area
        grads = np.empty((len(tris), 3, 2))
        np.negative(ey[[1, 2, 0]].T, out=grads[:, :, 0])
        grads[:, :, 1] = ex[[1, 2, 0]].T
        grads /= (2.0 * signed)[:, None, None]
        object.__setattr__(self, "grads", grads)

        ev, es = build_edges(verts, tris)
        object.__setattr__(self, "edge_vertices", ev)
        object.__setattr__(self, "edge_sides", es)

        # Euler relation for simply connected domains: V - E + F = 1
        euler = len(verts) - len(ev) + len(tris)
        if euler != 1:
            raise MeshError(f"Euler characteristic V-E+F = {euler}, expected 1")
        # counter-clockwise triangles that run an edge from one vertex overlap;
        # a boundary edge's -1 reads the last side's start, and the mask drops it
        start = tris.T.ravel()[es]
        same = np.flatnonzero((start[:, 0] == start[:, 1]) & (es[:, 1] >= 0))
        if len(same):
            raise MeshError(f"{len(same)} interior edge(s) have both triangles on one side "
                            f"(the triangles overlap), first at edges {ev[same[:5]].tolist()}")
        # the scheme imposes u = 0 on the flagged vertices: other flags solve another problem
        on_boundary = np.zeros(len(verts), dtype=bool)
        on_boundary[ev[es[:, 1] < 0]] = True
        wrong = np.flatnonzero(on_boundary != bnd)
        if len(wrong):
            raise MeshError(f"{len(wrong)} boundary flag(s) disagree with the mesh's boundary, "
                            f"at vertices {wrong[:10].tolist()}{' ...' if len(wrong) > 10 else ''}")

        # the corner between sides k and k - 1 has sine 2 area / (their product),
        # divided one side at a time so no quotient overflows; a triangle's
        # smallest angle is at most 60 degrees and any other corner's sine is
        # larger, so the smallest sine is that of the smallest angle
        sines = (2.0 * signed / sides) / np.roll(sides, 1, axis=0)
        object.__setattr__(self, "min_angle", float(np.arcsin(sines.min())))

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


def _side_vectors(verts, tris):
    """x and y of side k of every triangle, from its vertex k to vertex k + 1, (3, nt) each."""
    out = []
    for coord in verts.T:
        corner = np.take(coord, tris.T)
        side = np.empty_like(corner)
        np.subtract(corner[1:], corner[:-1], out=side[:2])
        np.subtract(corner[0], corner[2], out=side[2])
        out.append(side)
    return out


def _signed_areas(ex, ey):
    """Signed triangle areas from the side vectors, positive for counter-clockwise corners.

    Half the cross product of side 0 (p1 - p0) and p2 - p0, the negated side 2.
    """
    return 0.5 * (ex[2] * ey[0] - ex[0] * ey[2])


def build_edges(vertices, triangles):
    """The edge table, edges sorted by endpoints: ``edge_vertices`` and ``edge_sides``, int32.

    Per edge, its lower and higher endpoint, and its sides ascending (side k
    of triangle t, from its vertex k to vertex k + 1, as k nt + t), -1 as a
    boundary edge's second side.  Rejects non-manifold input (an edge shared
    by more than two triangles).  The endpoints do not depend on the
    per-triangle vertex ordering.
    """
    tris = np.asarray(triangles, dtype=np.int64)
    nv, nt = len(vertices), len(tris)
    # every side keyed lo * nv + hi by its endpoints; the stable sort keeps
    # one key's sides in ascending order
    a = tris.T.ravel()
    b = np.concatenate([a[nt:], a[:nt]])
    key = np.minimum(a, b) * nv
    key += np.maximum(a, b)
    del a, b   # three entries per triangle each: the sort's own arrays are the peak
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    counts = np.diff(np.r_[first, len(key)])
    if counts.max(initial=0) > 2:
        bad = key[first[np.argmax(counts)]]
        raise MeshError(f"non-manifold edge {(int(bad // nv), int(bad % nv))} "
                        f"shared by {counts.max()} triangles")
    edge_vertices = np.empty((len(first), 2), dtype=np.int32)
    edge_vertices[:, 0], edge_vertices[:, 1] = np.divmod(key[first], nv)
    edge_sides = np.full((len(first), 2), -1, dtype=np.int32)
    edge_sides[:, 0] = order[first]
    pair = counts == 2
    edge_sides[pair, 1] = order[first[pair] + 1]
    return edge_vertices, edge_sides


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
    """Parse the line-oriented text format; clockwise triangles are reoriented.

    The whitespace tokens (one Python string per number) are dropped once
    the vertex and triangle arrays hold their values, before the mesh is
    built, so they are never alive beside the build's own arrays.
    """
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
    verts = np.ascontiguousarray(body[:, :2])
    bflag = body[:, 2]
    if not np.all(np.isfinite(verts)):
        raise MeshError("vertex coordinates must be finite")
    if not np.all(np.isin(bflag, (0.0, 1.0))):
        raise MeshError("boundary flags must be 0 or 1")
    bflag = bflag.astype(bool)
    try:
        tris = np.asarray(tokens[2 + 3 * nv:], dtype=np.int64).reshape(nt, 3)
    except (ValueError, OverflowError) as exc:
        raise MeshError(f"malformed triangle line: {exc}") from exc
    del tokens, body
    # checked here because reorienting indexes the vertices before Mesh validates
    if tris.min(initial=0) < 0 or tris.max(initial=-1) >= nv:
        raise MeshError("triangle vertex index out of range")

    cw = _signed_areas(*_side_vectors(verts, tris)) < 0
    if np.any(cw):
        warnings.warn(f"reoriented {int(cw.sum())} clockwise triangle(s)", stacklevel=2)
        tris[cw] = tris[cw][:, [0, 2, 1]]
    return Mesh(vertices=verts, triangles=tris, boundary_vertex=bflag)


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
