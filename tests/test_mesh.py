from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcpm.mesh import MeshError, SurfaceMesh, dump_mesh, load_face_curvature, \
    load_mesh, validate_topology, vertex_components

from conftest import TETRA_TEXT


def test_tetrahedron_loads(tetra):
    mesh, lengths = tetra
    assert mesh.vertex_count == 4
    assert mesh.edge_count == 6
    assert mesh.face_count == 4
    assert mesh.euler_characteristic == 2
    assert np.all(lengths == 1.0)


def test_tetrahedron_topology(tetra):
    mesh, _ = tetra
    report = validate_topology(mesh)
    assert report.violations == []
    assert report.chi == 2
    assert report.genus == 0
    assert report.is_simplicial
    assert report.max_vertex_degree == 3
    assert not report.solver_eligible


def test_octagon_topology(octagon0):
    report = validate_topology(octagon0.mesh)
    assert report.violations == []
    assert (octagon0.mesh.vertex_count, octagon0.mesh.edge_count,
            octagon0.mesh.face_count) == (2, 12, 8)
    assert report.chi == -2
    assert report.genus == 2
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
    report = validate_topology(mesh)
    assert report.violations == []
    assert (mesh.vertex_count, mesh.edge_count, mesh.face_count) == (14, 48, 32)
    assert report.genus == 2
    assert 3 * mesh.face_count == 2 * mesh.edge_count


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_euler_and_count_invariants(octagon_levels, level):
    mesh = octagon_levels[level].mesh
    report = validate_topology(mesh)
    assert mesh.euler_characteristic == 2 - 2 * report.genus
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


def test_corner_incidence_tables(tetra):
    mesh, _ = tetra
    corners = mesh.corners_at_vertex()
    assert sum(len(c) for c in corners) == 3 * mesh.face_count
    for v, items in enumerate(corners):
        for f, s in items:
            assert mesh.face_corners[f, s] == v


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
