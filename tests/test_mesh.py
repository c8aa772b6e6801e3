from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcpm.mesh import MeshError, SurfaceMesh, dump_mesh, load_face_curvature, \
    load_mesh, validate_topology, vertex_components

from conftest import TETRA_TEXT, pinched


def test_tetrahedron_loads(tetra):
    mesh, lengths = tetra
    assert mesh.vertex_count == 4
    assert mesh.edge_count == 6
    assert mesh.face_count == 4
    assert mesh.euler_characteristic == 2
    assert np.all(lengths == 1.0)


def test_pinched_vertices_are_violations(octagon2):
    # gluing two pairs of vertices keeps an even Euler characteristic (genus
    # 3), so only the links show that the result is not a surface
    mesh = pinched(octagon2)
    assert mesh.genus == 3
    report = validate_topology(mesh)
    assert report.violations == ["vertex 10: link has 2 cycles (not a surface)",
                                 "vertex 20: link has 2 cycles (not a surface)"]
    assert not report.solver_eligible


def test_tetrahedron_topology(tetra):
    mesh, _ = tetra
    report = validate_topology(mesh)
    assert report.violations == []
    assert mesh.euler_characteristic == 2
    assert mesh.genus == 0
    assert report.is_simplicial
    assert report.max_vertex_degree == 3
    assert not report.solver_eligible


def test_octagon_topology(octagon0):
    report = validate_topology(octagon0.mesh)
    assert report.violations == []
    assert (octagon0.mesh.vertex_count, octagon0.mesh.edge_count,
            octagon0.mesh.face_count) == (2, 12, 8)
    assert octagon0.mesh.euler_characteristic == -2
    assert octagon0.mesh.genus == 2
    assert not report.is_simplicial          # two vertices, loops, multi-edges
    assert report.solver_eligible

    # two disjoint copies: a genus-3 complex whose 1-skeleton is disconnected
    m, V, E = octagon0.mesh, octagon0.mesh.vertex_count, octagon0.mesh.edge_count
    pair = SurfaceMesh(vertex_count=2 * V,
                       edges=np.concatenate([m.edges, m.edges + V]),
                       face_edges=np.concatenate([m.face_edges, m.face_edges + E]),
                       face_signs=np.concatenate([m.face_signs, m.face_signs]),
                       edge_ids=np.arange(2 * E),
                       face_ids=np.arange(2 * m.face_count))
    pair_report = validate_topology(pair)
    assert pair_report.violations == ["mesh is disconnected"]
    assert pair_report.is_simplicial == report.is_simplicial
    assert not pair_report.solver_eligible


def test_refined_octagon_counts(octagon1):
    mesh = octagon1.mesh
    assert validate_topology(mesh).violations == []
    assert (mesh.vertex_count, mesh.edge_count, mesh.face_count) == (14, 48, 32)
    assert mesh.genus == 2
    assert 3 * mesh.face_count == 2 * mesh.edge_count


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_euler_and_count_invariants(octagon_levels, level):
    mesh = octagon_levels[level].mesh
    assert validate_topology(mesh).solver_eligible
    assert mesh.euler_characteristic == 2 - 2 * mesh.genus
    assert 3 * mesh.face_count == 2 * mesh.edge_count


def bfs_components(vertex_count, edges):
    """Reference: label each vertex by the smallest vertex id reachable."""
    adj = [[] for _ in range(vertex_count)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    label = [-1] * vertex_count
    for start in range(vertex_count):
        if label[start] < 0:
            label[start] = start
            queue = deque([start])
            while queue:
                for w in adj[queue.popleft()]:
                    if label[w] < 0:
                        label[w] = start
                        queue.append(w)
    return label


multigraphs = st.integers(1, 200).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         max_size=2 * n)))


@settings(max_examples=200, deadline=None)
@given(multigraphs)
def test_vertex_components_matches_bfs(graph):
    n, edges = graph
    labels = vertex_components(n, np.array(edges, dtype=np.int64).reshape(-1, 2))
    assert labels.tolist() == bfs_components(n, edges)


def test_roundtrip_identity(octagon2):
    text = dump_mesh(octagon2.mesh, octagon2.lengths)
    mesh2, lengths2 = load_mesh(text)
    assert mesh2.vertex_count == octagon2.mesh.vertex_count
    assert np.array_equal(mesh2.edges, octagon2.mesh.edges)
    assert np.array_equal(mesh2.face_edges, octagon2.mesh.face_edges)
    assert np.array_equal(mesh2.face_signs, octagon2.mesh.face_signs)
    assert np.array_equal(mesh2.edge_ids, octagon2.mesh.edge_ids)
    assert np.array_equal(mesh2.face_ids, octagon2.mesh.face_ids)
    assert np.array_equal(lengths2, octagon2.lengths)
    assert dump_mesh(mesh2, lengths2) == text


def test_corners_consistent_with_edges(octagon1):
    mesh = octagon1.mesh
    for f in range(mesh.face_count):
        for s in range(3):
            e = mesh.face_edges[f, s]
            a, b = mesh.edges[e]
            tail, head = (a, b) if mesh.face_signs[f, s] > 0 else (b, a)
            assert mesh.face_corners[f, s] == tail
            assert mesh.face_corners[f, (s + 1) % 3] == head


def test_bad_header():
    with pytest.raises(MeshError, match="header"):
        load_mesh("DCPM 2\nv 1\n")


def test_duplicate_edge_id():
    text = TETRA_TEXT.replace("e 1 0 2 1.0", "e 0 0 2 1.0")
    with pytest.raises(MeshError, match="duplicate edge id"):
        load_mesh(text)


def test_unknown_edge_reference():
    text = TETRA_TEXT.replace("f 0 +0 +3 -1", "f 0 +0 +9 -1")
    with pytest.raises(MeshError, match="unknown edge"):
        load_mesh(text)


def test_non_manifold_edge_rejected():
    text = TETRA_TEXT + "e 6 1 2 1.0\ne 7 0 1 1.0\nf 4 +0 +3 -1\n"
    with pytest.raises(MeshError, match="non-manifold edge"):
        load_mesh(text)


def test_dangling_edge_rejected():
    text = TETRA_TEXT + "e 6 1 2 1.0\n"
    with pytest.raises(MeshError, match="dangling edge"):
        load_mesh(text)


@pytest.mark.parametrize("face_edges, message", [
    ([[0, 3, 1], [1, 5, 2], [2, 4, 0], [4, 5, 3], [0, 3, 1]], "non-manifold edge 0"),
    ([[0, 3, 1], [1, 5, 2], [2, 4, 0]], "dangling edge 3"),
    ([[0, 3, 1], [1, 5, 2], [2, 4, 0], [4, 5, 6]], "face edge index"),
])
def test_surface_mesh_owns_slot_counts(tetra, face_edges, message):
    mesh, _ = tetra
    signs = np.ones((len(face_edges), 3))
    with pytest.raises(MeshError, match=message):
        SurfaceMesh(mesh.vertex_count, mesh.edges, face_edges, signs,
                    mesh.edge_ids, np.arange(len(face_edges)))


def test_surface_mesh_bounds_vertex_count(tetra):
    mesh, _ = tetra
    with pytest.raises(MeshError, match="vertex count 13"):
        SurfaceMesh(13, mesh.edges, mesh.face_edges, mesh.face_signs,
                    mesh.edge_ids, mesh.face_ids)


@pytest.mark.parametrize("endpoint", [-1, 4])
def test_surface_mesh_bounds_edge_endpoints(tetra, endpoint):
    mesh, _ = tetra
    edges = mesh.edges.copy()
    edges[5, 1] = endpoint
    with pytest.raises(MeshError, match="edge endpoint out of vertex range"):
        SurfaceMesh(mesh.vertex_count, edges, mesh.face_edges, mesh.face_signs,
                    mesh.edge_ids, mesh.face_ids)


@pytest.mark.parametrize("face, slot, sign", [(0, 1, 2), (2, 0, 0), (3, 2, -2)])
def test_surface_mesh_takes_signs_of_one(tetra, face, slot, sign):
    # a sign of 2 used to walk its edge as +1 does and surface only as an
    # orientation defect of validate_topology
    mesh, _ = tetra
    signs = mesh.face_signs.copy()
    signs[face, slot] = sign
    with pytest.raises(MeshError, match=rf"^face {face}: edge signs must be \+1 or -1$"):
        SurfaceMesh(mesh.vertex_count, mesh.edges, mesh.face_edges, signs,
                    mesh.edge_ids, mesh.face_ids)


def test_surface_mesh_compares_by_identity(tetra, octagon1):
    # a generated __eq__ would compare arrays and raise on truth testing
    mesh, twin = tetra[0], load_mesh(TETRA_TEXT)[0]
    assert mesh == mesh and mesh != twin and mesh in [twin, mesh]
    assert mesh not in [twin, octagon1.mesh] and len({mesh, twin, mesh}) == 2
    assert octagon1 in [octagon1] and len({octagon1, octagon1}) == 1


def test_nonpositive_length_rejected():
    text = TETRA_TEXT.replace("e 5 2 3 1.0", "e 5 2 3 0.0")
    with pytest.raises(MeshError, match="length"):
        load_mesh(text)


def test_non_chaining_face_rejected():
    text = TETRA_TEXT.replace("f 0 +0 +3 -1", "f 0 +0 -3 -1")
    with pytest.raises(MeshError, match="chain"):
        load_mesh(text)


def test_orientation_defect_reported():
    # reverse the cycle of face 0: chains fine, but three edges now get
    # traversed twice in the same direction
    text = TETRA_TEXT.replace("f 0 +0 +3 -1", "f 0 +1 -3 -0")
    mesh, _ = load_mesh(text)
    report = validate_topology(mesh)
    assert any("orientation" in v for v in report.violations)
    assert not report.solver_eligible


def test_comments_and_blank_lines():
    text = "# fixture\n\n" + TETRA_TEXT.replace("v 4", "v 4  # vertices")
    mesh, _ = load_mesh(text)
    assert mesh.vertex_count == 4


def test_curvature_file(tetra):
    mesh, _ = tetra
    text = "\n".join(f"k {f} -1.5" for f in range(4))
    kappa = load_face_curvature(text, mesh)
    assert np.all(kappa == -1.5)

    with pytest.raises(MeshError, match="missing curvature"):
        load_face_curvature("k 0 -1.0", mesh)
    with pytest.raises(MeshError, match="negative"):
        load_face_curvature(text.replace("k 2 -1.5", "k 2 0.5"), mesh)


TETRA_KAPPA = "k 0 -1.5\nk 1 -1.5\nk 2 -1.5\nk 3 -1.5\n"


def edited(text, old, new):
    assert old in text, old
    return text.replace(old, new)


def tetra_edit(old, new):
    return edited(TETRA_TEXT, old, new), TETRA_KAPPA


def kappa_edit(old, new):
    return TETRA_TEXT, edited(TETRA_KAPPA, old, new)


# Each message the two text parsers raise, in full, plus two that
# SurfaceMesh raises for a parsed file.  Lines of TETRA_TEXT: 1 header,
# 2 'v', 3-8 edges 0-5, 9-12 faces 0-3.
@pytest.mark.parametrize("texts, message", [
    (("", TETRA_KAPPA), "empty file: missing header"),
    (("# nothing\n\n  \n", TETRA_KAPPA), "empty file: missing header"),
    (tetra_edit("DCPM 1", "DCPM 2"), "line 1: expected header 'DCPM 1'"),
    (tetra_edit("DCPM 1", "\n# c\nDCPM  1"), "line 3: expected header 'DCPM 1'"),
    (tetra_edit("v 4\n", "v 4\nv 4\n"), "line 3: duplicate 'v' line"),
    (tetra_edit("v 4", "v 4 4"), "line 2: 'v' takes one count"),
    (tetra_edit("v 4", "v"), "line 2: 'v' takes one count"),
    (tetra_edit("v 4", "v four"), "line 2: bad vertex count 'four'"),
    (tetra_edit("v 4", "v 99999999999999999999"),
     "line 2: vertex count '99999999999999999999' outside int64"),
    (tetra_edit("v 4", "v 0"), "line 2: vertex count must be > 0"),
    (tetra_edit("v 4\ne 0 0 1 1.0\n", "e 0 0 1 1.0\nv 4\n"),
     "line 2: 'e' before 'v'"),
    (tetra_edit("e 0 0 1 1.0", "e 0 0 1"),
     "line 3: 'e' takes id, endpoints, length"),
    (tetra_edit("e 0 0 1 1.0", "e x 0 1 1.0"), "line 3: bad edge id 'x'"),
    (tetra_edit("e 0 0 1 1.0", "e -9223372036854775809 0 1 1.0"),
     "line 3: edge id '-9223372036854775809' outside int64"),
    (tetra_edit("e 1 0 2 1.0", "e 0 0 2 1.0"), "line 4: duplicate edge id 0"),
    (tetra_edit("e 0 0 1 1.0", "e 0 0 y 1.0"), "line 3: bad vertex 'y'"),
    (tetra_edit("e 0 0 1 1.0", "e 0 0 4 1.0"), "line 3: vertex id out of range"),
    (tetra_edit("e 0 0 1 1.0", "e 0 -1 1 1.0"), "line 3: vertex id out of range"),
    (tetra_edit("e 0 0 1 1.0", "e 0 0 1 long"), "line 3: bad length 'long'"),
    (tetra_edit("e 0 0 1 1.0", "e 0 0 1 inf"),
     "line 3: edge length must be finite and > 0"),
    (tetra_edit("e 0 0 1 1.0", "e 0 0 1 -0"),
     "line 3: edge length must be finite and > 0"),
    (tetra_edit("f 0 +0 +3 -1", "f 0 +0 +3"),
     "line 9: 'f' takes id and 3 signed edges"),
    (tetra_edit("f 0 +0 +3 -1", "f z +0 +3 -1"), "line 9: bad face id 'z'"),
    (tetra_edit("f 1 +1 +5 -2", "f 0 +1 +5 -2"), "line 10: duplicate face id 0"),
    (tetra_edit("f 0 +0 +3 -1", "f 0 +0 +x -1"),
     "line 9: bad edge reference 'x'"),
    (tetra_edit("f 0 +0 +3 -1", "f 0 +0 + -1"), "line 9: bad edge reference ''"),
    (tetra_edit("f 0 +0 +3 -1", "f 0 +0 +3 --1"),
     "line 9: face 0 references unknown edge -1"),
    (tetra_edit("f 0 +0 +3 -1", "f 0 +0 +9 -1"),
     "line 9: face 0 references unknown edge 9"),
    # edge 5 defined after the faces: references must point backwards
    ((edited(TETRA_TEXT, "e 5 2 3 1.0\n", "") + "e 5 2 3 1.0\n", TETRA_KAPPA),
     "line 9: face 1 references unknown edge 5"),
    (tetra_edit("f 3", "q 3"), "line 12: unknown record 'q'"),
    (("DCPM 1\n", TETRA_KAPPA), "missing 'v' line"),
    (("DCPM 1\nv 4\n", TETRA_KAPPA), "mesh has no faces"),
    (tetra_edit("f 0 +0 +3 -1", "f 0 +0 -3 -1"),
     "face 0: directed edges do not chain head-to-tail"),
    ((TETRA_TEXT + "e 6 1 2 1.0\n", TETRA_KAPPA),
     "dangling edge 6: not used by exactly 2 face slots"),
    (kappa_edit("k 0 -1.5", "k 0 -1.5 0"), "line 1: expected 'k <face_id> <value>'"),
    (kappa_edit("k 2 -1.5", "# c\nK 2 -1.5"),
     "line 4: expected 'k <face_id> <value>'"),
    (kappa_edit("k 1 -1.5", "k one -1.5"), "line 2: bad face id 'one'"),
    (kappa_edit("k 1 -1.5", "k 0 -1.5"), "line 2: duplicate face id 0"),
    (kappa_edit("k 3 -1.5", "k 3 steep"), "line 4: bad curvature 'steep'"),
    (kappa_edit("k 3 -1.5", "k 3 -1.5\nk 9 -1\nk 5 -1"),
     "curvature given for unknown face 5"),
    (kappa_edit("k 1 -1.5\nk 2 -1.5", "k 9 -1"), "missing curvature for face 1"),
    (kappa_edit("k 2 -1.5", "k 2 0.5"),
     "face curvatures must be finite and strictly negative"),
    (kappa_edit("k 2 -1.5", "k 2 nan"),
     "face curvatures must be finite and strictly negative"),
])
def test_parser_messages(texts, message):
    mesh_text, kappa_text = texts
    with pytest.raises(MeshError) as err:
        mesh, _ = load_mesh(mesh_text)
        load_face_curvature(kappa_text, mesh)
    assert str(err.value) == message


# Python's int() and float() read digit-group underscores and any Unicode
# decimal digit; the file formats take ASCII numbers only.
@pytest.mark.parametrize("texts, message", [
    (tetra_edit("v 4", "v 0_4"), "line 2: bad vertex count '0_4'"),
    (tetra_edit("v 4", "v \u0664"), "line 2: bad vertex count '\u0664'"),
    (tetra_edit("e 1 0 2 1.0", "e 1_0 0 2 1.0"), "line 4: bad edge id '1_0'"),
    (tetra_edit("e 1 0 2 1.0", "e 1 0 \u0662 1.0"), "line 4: bad vertex '\u0662'"),
    (tetra_edit("e 1 0 2 1.0", "e 1 0 \uff12 1.0"), "line 4: bad vertex '\uff12'"),
    (tetra_edit("e 1 0 2 1.0", "e 1 0 2 1_0.0"), "line 4: bad length '1_0.0'"),
    (tetra_edit("e 1 0 2 1.0", "e 1 0 2 1.\u0660"), "line 4: bad length '1.\u0660'"),
    (tetra_edit("f 1 +1 +5 -2", "f 1_1 +1 +5 -2"), "line 10: bad face id '1_1'"),
    (tetra_edit("f 1 +1 +5 -2", "f 1 +1 +\u0665 -2"),
     "line 10: bad edge reference '\u0665'"),
    (tetra_edit("f 1 +1 +5 -2", "f 1 +1 +0_5 -2"),
     "line 10: bad edge reference '0_5'"),
    (kappa_edit("k 1 -1.5", "k \u0661 -1.5"), "line 2: bad face id '\u0661'"),
    (kappa_edit("k 1 -1.5", "k 1 -1_5"), "line 2: bad curvature '-1_5'"),
    (kappa_edit("k 1 -1.5", "k 1 -\u0661.5"), "line 2: bad curvature '-\u0661.5'"),
], ids=["v-underscore", "v-arabic-indic", "e-id-underscore", "e-vertex-arabic",
        "e-vertex-fullwidth", "e-length-underscore", "e-length-arabic",
        "f-id-underscore", "f-ref-arabic", "f-ref-underscore", "k-id-arabic",
        "k-value-underscore", "k-value-arabic"])
def test_parser_takes_ascii_numbers_only(texts, message):
    mesh_text, kappa_text = texts
    with pytest.raises(MeshError) as err:
        mesh, _ = load_mesh(mesh_text)
        load_face_curvature(kappa_text, mesh)
    assert str(err.value) == message
