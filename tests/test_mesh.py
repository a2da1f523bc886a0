"""Mesh construction, edge adjacency and the text import format."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavest.estimators import scaled_edge_normals
from wavest.mesh import (Mesh, MeshError, build_edges, format_mesh,
                         generate_structured, import_mesh)

from oracles import clockwise_payload, gathered_geometry, jittered_crisscross


def loop_structured(n, pattern):
    """Python-loop oracle of generate_structured: vertices, triangles, boundary flags."""
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
                tris.extend([(v00, v10, c), (v10, v11, c), (v11, v01, c), (v01, v00, c)])
    boundary = np.zeros(len(verts), dtype=bool)
    for k, (x, y) in enumerate(verts):
        boundary[k] = any(np.isclose(z, 0.0) or np.isclose(z, 1.0) for z in (x, y))
    return verts, np.asarray(tris, dtype=np.int64), boundary


def loop_edges(triangles):
    """Python-loop oracle of build_edges: every edge sorted by endpoints, its sides ascending.

    Side k of triangle t runs from its vertex k to vertex k + 1 and is
    numbered k nt + t; a boundary edge's second side is -1.
    """
    nt = len(triangles)
    sides = {}
    for t, tri in enumerate(triangles):
        for k in range(3):
            a, b = tri[k], tri[(k + 1) % 3]
            sides.setdefault((min(a, b), max(a, b)), []).append(k * nt + t)
    edges = sorted(sides)
    ev = np.asarray(edges, dtype=np.int32).reshape(-1, 2)
    es = np.asarray([sorted(sides[e]) + [-1] * (2 - len(sides[e])) for e in edges],
                    dtype=np.int32).reshape(-1, 2)
    return ev, es


def interior_count(m):
    return int(np.count_nonzero(m.edge_sides[:, 1] >= 0))


class TestStructured:
    def test_smallest_diagonal(self):
        m = generate_structured(1)
        assert m.n_triangles == 2
        assert m.n_vertices == 4
        assert len(m.edge_vertices) == 5
        assert interior_count(m) == 1

    def test_diagonal_counts_and_euler(self):
        m = generate_structured(2)
        assert m.n_triangles == 8
        assert m.n_vertices == 9
        # V - E + F = 9 - 16 + 8 = 1 is checked at construction; recount edges
        edges = np.concatenate([m.triangles[:, [0, 1]], m.triangles[:, [1, 2]],
                                m.triangles[:, [2, 0]]])
        n_edges = len(np.unique(np.sort(edges, axis=1), axis=0))
        assert m.n_vertices - n_edges + m.n_triangles == 1
        assert n_edges == 16
        assert len(m.edge_vertices) == 16
        assert interior_count(m) == 8

    def test_crisscross_counts(self):
        m = generate_structured(2, "crisscross")
        assert m.n_triangles == 16
        assert m.n_vertices == 13

    def test_uniform_diameters(self):
        m = generate_structured(4)
        np.testing.assert_allclose(m.h_K, np.sqrt(2) / 4, rtol=1e-14)
        assert m.h == pytest.approx(np.sqrt(2) / 4)

    def test_area_partition(self):
        for pattern in ("diagonal", "crisscross"):
            m = generate_structured(5, pattern)
            assert m.areas.sum() == pytest.approx(1.0, abs=1e-12)

    def test_boundary_flags(self):
        m = generate_structured(3)
        on_bnd = ((m.vertices[:, 0] % 1.0 == 0) | (m.vertices[:, 1] % 1.0 == 0))
        assert m.boundary_vertex.sum() == 12  # 4*3 boundary vertices on the square
        assert len(m.free_vertices) == 4
        assert np.all(~m.boundary_vertex[m.free_vertices])

    def test_rejects_zero_subdivision(self):
        with pytest.raises(ValueError):
            generate_structured(0)


class TestVectorisedAgainstLoops:
    @pytest.mark.parametrize("pattern", ["diagonal", "crisscross"])
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_structured_mesh_bit_equal(self, n, pattern):
        m = generate_structured(n, pattern)
        verts, tris, boundary = loop_structured(n, pattern)
        ev, es = loop_edges(tris)
        for got, want in ((m.vertices, verts), (m.triangles, tris),
                          (m.boundary_vertex, boundary),
                          (m.edge_vertices, ev), (m.edge_sides, es)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 4), pattern=st.sampled_from(["diagonal", "crisscross"]),
           data=st.data())
    def test_interior_edges_invariant_under_relabelling(self, n, pattern, data):
        m = generate_structured(n, pattern)
        nt = m.n_triangles
        perm = np.asarray(data.draw(st.permutations(range(nt))), dtype=np.int64)
        shift = np.asarray(data.draw(st.lists(st.integers(0, 2), min_size=nt, max_size=nt)))
        cols = (np.arange(3)[None, :] + shift[:, None]) % 3
        tris = np.take_along_axis(m.triangles[perm], cols, axis=1)
        ev, es = build_edges(m.vertices, tris)
        on_boundary = np.zeros(m.n_vertices, dtype=bool)
        on_boundary[ev[es[:, 1] < 0]] = True
        np.testing.assert_array_equal(on_boundary, m.boundary_vertex)
        # every edge with its triangles, mapped back through the permutation
        relabelled = {(tuple(e), tuple(sorted(perm[s[s >= 0] % nt]))) for e, s in zip(ev, es)}
        original = {(tuple(e), tuple(sorted(s[s >= 0] % nt)))
                    for e, s in zip(m.edge_vertices, m.edge_sides)}
        assert relabelled == original
        for got, want in zip((ev, es), loop_edges(tris)):
            np.testing.assert_array_equal(got, want)


class TestGeometryAgainstGathers:
    """Areas, h_K, hat gradients and min_angle from side vectors, bit-equal to row gathers."""

    @pytest.mark.parametrize("pattern", ["diagonal", "crisscross"])
    @pytest.mark.parametrize("n", [1, 2, 5, 20])
    def test_structured_fields_bit_equal(self, n, pattern):
        m = generate_structured(n, pattern)
        self.assert_fields_bit_equal(m, m.triangles)

    def test_jittered_fields_bit_equal(self):
        m = jittered_crisscross(6)
        self.assert_fields_bit_equal(m, m.triangles)

    def test_imported_clockwise_triangles_bit_equal(self):
        # a jittered mesh written with every other triangle clockwise: the
        # reader reorients those the oracle's gathers give a negative area
        payload, tris = clockwise_payload(jittered_crisscross(5, seed=2))
        with pytest.warns(UserWarning, match=f"reoriented {len(tris[::2])} clockwise"):
            m = import_mesh(payload)
        cw = gathered_geometry(m.vertices, tris)["areas"] < 0
        tris[cw] = tris[cw][:, [0, 2, 1]]
        np.testing.assert_array_equal(m.triangles, tris)
        self.assert_fields_bit_equal(m, tris)

    @staticmethod
    def assert_fields_bit_equal(m, triangles):
        oracle = gathered_geometry(m.vertices, triangles)
        for name in ("areas", "h_K", "grads"):
            got = getattr(m, name)
            assert got.dtype == oracle[name].dtype and got.shape == oracle[name].shape, name
            np.testing.assert_array_equal(got, oracle[name], err_msg=name)
        assert m.min_angle == oracle["min_angle"]
        ev, es = loop_edges(triangles)
        np.testing.assert_array_equal(m.edge_vertices, ev)
        np.testing.assert_array_equal(m.edge_sides, es)
        assert m.edge_vertices.dtype == m.edge_sides.dtype == np.int32
        np.testing.assert_array_equal(m.boundary_vertex,
                                      np.isin(np.arange(m.n_vertices), ev[es[:, 1] < 0]))
        np.testing.assert_array_equal(m.triangles, triangles)


class TestEdges:
    def test_adjacent_triangles_share_exactly_the_endpoints(self):
        m = generate_structured(3)
        nt = m.n_triangles
        for endpoints, sides in zip(m.edge_vertices, m.edge_sides):
            owned = sides[sides >= 0]
            # each side runs between the edge's endpoints
            for t, k in zip(owned % nt, owned // nt):
                assert {m.triangles[t, k], m.triangles[t, (k + 1) % 3]} == set(endpoints)
            if len(owned) == 2:
                left, right = owned % nt
                assert set(m.triangles[left]) & set(m.triangles[right]) == set(endpoints)

    def test_normals_unit(self):
        # the jump operator's normals, scaled by the edge lengths, are unit normals
        m = generate_structured(4, "crisscross")
        lengths = np.linalg.norm(np.subtract(*m.vertices[m.edge_vertices.T]), axis=1)
        normals = scaled_edge_normals(m.vertices, m.edge_vertices) / lengths[:, None]
        np.testing.assert_allclose(np.linalg.norm(normals, axis=1), 1.0,
                                   atol=1e-14)

    def test_orientation_independence(self):
        m = generate_structured(2)
        tris = m.triangles.copy()
        tris[3] = tris[3][[1, 0, 2]]  # flip one triangle before building
        ev1 = build_edges(m.vertices, m.triangles)[0]
        ev2 = build_edges(m.vertices, tris)[0]
        as_set = lambda ev: {tuple(sorted(e)) for e in ev}
        assert as_set(ev1) == as_set(ev2)

    def test_non_manifold_rejected(self):
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, -1.0]])
        tris = np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]])
        with pytest.raises(MeshError, match=r"non-manifold edge \(0, 1\) shared by 3"):
            build_edges(verts, tris)



class TestImport:
    def test_round_trip_matches_generated(self):
        m = generate_structured(1)
        m2 = import_mesh(format_mesh(m))
        np.testing.assert_allclose(m2.vertices, m.vertices)
        np.testing.assert_array_equal(m2.triangles, m.triangles)
        assert interior_count(m2) == 1

    def test_two_triangle_square_literal(self):
        payload = """4 2
0.0 0.0 1
1.0 0.0 1
1.0 1.0 1
0.0 1.0 1
0 1 2
0 2 3
"""
        m = import_mesh(payload)
        assert m.n_triangles == 2
        assert interior_count(m) == 1
        assert m.areas.sum() == pytest.approx(1.0)

    def test_clockwise_triangle_reoriented_with_warning(self):
        payload = """4 2
0.0 0.0 1
1.0 0.0 1
1.0 1.0 1
0.0 1.0 1
0 2 1
0 2 3
"""
        with pytest.warns(UserWarning, match="reoriented"):
            m = import_mesh(payload)
        assert np.all(m.areas > 0)

    def test_tangled_file_rejected(self):
        # vertex (0.5, 0.5) of the n=4 diagonal mesh moved to (0.5, 0.8) turns
        # two triangles over; reoriented, they overlap their neighbours, and
        # the triangles' areas would sum to 1.025 on the unit square
        m = generate_structured(4)
        lines = format_mesh(m).splitlines()
        assert lines[1 + 12] == "0.5 0.5 0"
        lines[1 + 12] = "0.5 0.8 0"
        verts = m.vertices.copy()
        verts[12] = 0.5, 0.8
        assert np.abs(gathered_geometry(verts, m.triangles)["areas"]).sum() == pytest.approx(1.025)
        with pytest.warns(UserWarning, match="reoriented 2 clockwise"):
            with pytest.raises(MeshError, match=r"^4 interior edge\(s\) have both triangles on one "
                                                r"side \(the triangles overlap\), first at edges "
                                                r"\[\[7, 12\], \[7, 13\], \[12, 18\], \[13, 18\]\]$"):
                import_mesh("\n".join(lines) + "\n")

    def test_overlapping_counter_clockwise_triangles_rejected(self):
        # both triangles run their shared edge from vertex 0 to vertex 1
        verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(MeshError, match=r"^1 interior edge\(s\) .* at edges \[\[0, 1\]\]$"):
            Mesh(vertices=verts, triangles=np.array([[0, 1, 2], [0, 1, 3]]),
                 boundary_vertex=np.ones(4, bool))

    def test_non_manifold_file_rejected(self):
        payload = """5 3
0.0 0.0 1
1.0 0.0 1
0.0 1.0 1
1.0 1.0 1
0.5 -1.0 1
0 1 2
0 1 3
0 4 1
"""
        with pytest.raises(MeshError, match="non-manifold"):
            import_mesh(payload)

    def test_malformed_counts_rejected(self):
        with pytest.raises(MeshError):
            import_mesh("3 nope\n")
        with pytest.raises(MeshError):
            import_mesh("4 2\n0 0 1\n")

    def test_dangling_vertex_rejected(self):
        payload = """4 1
0.0 0.0 1
1.0 0.0 1
0.0 1.0 1
5.0 5.0 1
0 1 2
"""
        with pytest.raises(MeshError, match="dangling"):
            import_mesh(payload)

    def test_boundary_vertex_flagged_interior_rejected(self):
        # vertex 5 of the n=4 diagonal mesh lies at (0.25, 0), on the boundary
        lines = format_mesh(generate_structured(4)).splitlines()
        assert lines[1 + 5] == "0.25 0.0 1"
        lines[1 + 5] = "0.25 0.0 0"
        with pytest.raises(MeshError, match=r"^1 boundary flag\(s\) disagree with the mesh's "
                                            r"boundary, at vertices \[5\]$"):
            import_mesh("\n".join(lines))

    def test_interior_vertices_flagged_boundary_rejected(self):
        # all 16 interior vertices of the n=5 mesh flagged 1; the first ten are named
        m = generate_structured(5)
        interior = np.flatnonzero(~m.boundary_vertex)
        with pytest.raises(MeshError, match=rf"^16 boundary flag\(s\) .* at vertices "
                                            rf"\[{', '.join(map(str, interior[:10]))}\] \.\.\.$"):
            Mesh(vertices=m.vertices, triangles=m.triangles,
                 boundary_vertex=np.ones(m.n_vertices, bool))

    def test_min_angle_metadata(self):
        m = generate_structured(2)
        assert m.min_angle == pytest.approx(np.pi / 4, rel=1e-12)

    def test_min_angle_finite_where_squared_sides_overflow(self):
        # sides 1e154, 1e154 and 1e-10 are finite, their squares are not:
        # the smallest corner is atan(1e-10 / 1e154)
        m = import_mesh("3 1\n0 0 1\n1e154 0 1\n0 1e-10 1\n0 1 2\n")
        assert m.min_angle == pytest.approx(1e-164, rel=1e-12)

    def test_triangle_index_out_of_range_rejected(self):
        for bad in ("5", "-4"):
            payload = f"3 1\n0 0 1\n1 0 1\n0 1 1\n0 1 {bad}\n"
            with pytest.raises(MeshError, match="out of range"):
                import_mesh(payload)
        # an index past int64 fails while parsing
        with pytest.raises(MeshError, match="malformed triangle line"):
            import_mesh("3 1\n0 0 1\n1 0 1\n0 1 1\n0 1 99999999999999999999\n")

    def test_negative_counts_rejected(self):
        with pytest.raises(MeshError, match="non-negative"):
            import_mesh("-1 1\n")

    def test_non_finite_coordinate_rejected(self):
        for bad in ("nan", "inf", "-inf"):
            payload = f"3 1\n0 0 1\n1 0 1\n0 {bad} 1\n0 1 2\n"
            with pytest.raises(MeshError, match="finite"):
                import_mesh(payload)

    @pytest.mark.parametrize("payload, what", [
        # area 5e599: inf
        ("3 1\n0 0 1\n1e300 0 1\n0 1e300 1\n0 1 2\n", "area"),
        # (x1 - x0) overflows to inf and (y2 - y0) is 0: a NaN area, which is
        # neither zero nor negative
        ("3 1\n-1e308 0 1\n1e308 1 1\n0 0 1\n0 1 2\n", "area"),
        # area 0.5, but the squared side 1e400 overflows
        ("3 1\n0 0 1\n1e200 0 1\n0 1e-200 1\n0 1 2\n", "side length"),
    ])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")   # numpy reports the overflow too
    def test_overflowing_geometry_rejected(self, payload, what):
        with pytest.raises(MeshError, match=f"triangle {what} overflows"):
            import_mesh(payload)


class TestReaderFootprint:
    """The reader at a size of several quadrature blocks: its memory and its round trip."""

    N = 64   # crisscross level: 8,321 vertices, 16,384 triangles

    @staticmethod
    def traced(build):
        """``build()`` and tracemalloc's peak while it ran, in bytes."""
        import tracemalloc

        tracemalloc.start()
        try:
            return build(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_import_peak_near_the_generator(self):
        # the tokens are freed before the mesh is built, so the reader's peak
        # is the build's (keeping them took 1.65 times the generator's peak)
        text = format_mesh(generate_structured(self.N, "crisscross"))
        _, generated = self.traced(lambda: generate_structured(self.N, "crisscross"))
        _, imported = self.traced(lambda: import_mesh(text))
        assert imported <= 1.15 * generated

    def test_round_trip_is_bit_equal(self):
        mesh = generate_structured(self.N, "crisscross")
        back = import_mesh(format_mesh(mesh))
        for name in ("vertices", "triangles", "boundary_vertex", "edge_vertices", "edge_sides",
                     "areas", "h_K", "grads"):
            a, b = getattr(mesh, name), getattr(back, name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name


# replacement tokens: non-finite and huge numbers, indices on both sides of the
# vertex range, fractions and words
MUTANT_TOKENS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e300", "0.5", "-0", "x", "",
                     "99999999999999999999"]),
    st.integers(-12, 12).map(str))


@settings(max_examples=300)
@given(data=st.data(), pattern=st.sampled_from(["diagonal", "crisscross"]))
def test_mutated_payload_raises_only_mesh_error(data, pattern):
    # a mutated payload is rejected with MeshError or parses to a valid mesh
    mesh = generate_structured(2, pattern)
    tokens = format_mesh(mesh).split()
    nv3 = 2 + 3 * mesh.n_vertices
    sections = (range(0, 2), range(2, nv3), range(nv3, len(tokens)))  # counts, vertices, triangles
    for _ in range(data.draw(st.integers(1, 3))):
        i = min(data.draw(st.sampled_from(data.draw(st.sampled_from(sections)))), len(tokens) - 1)
        edit = data.draw(st.sampled_from(["replace", "delete", "duplicate"]))
        if edit == "replace":
            tokens[i] = data.draw(MUTANT_TOKENS)
        elif edit == "delete":
            del tokens[i]
        else:
            tokens.insert(i, tokens[i])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            mutant = import_mesh(" ".join(tokens))
        except MeshError:
            return
    assert np.all(np.isfinite(mutant.vertices)) and np.all(mutant.areas > 0)
    assert np.all(np.isfinite(mutant.areas)) and np.all(np.isfinite(mutant.h_K))
    assert np.isfinite(mutant.min_angle)
