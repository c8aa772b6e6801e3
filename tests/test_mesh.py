from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcpm.mesh import MeshError, SurfaceMesh, cycle_minima, dump_mesh, \
    load_face_curvature, load_mesh, validate_topology, vertex_components

from conftest import TETRA_TEXT, degenerate_lengths, pinched, reversed_spokes


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


permutations = st.integers(1, 200).flatmap(lambda n: st.permutations(range(n)))


@settings(max_examples=200, deadline=None)
@given(permutations)
def test_cycle_minima_match_components(perm):
    perm = np.array(perm, dtype=np.int64)
    pairs = np.stack([np.arange(perm.size), perm], axis=1)
    assert np.array_equal(cycle_minima(perm), vertex_components(perm.size, pairs))


def test_link_rotation_cycle_minima(octagon2):
    # the corner rotation of validate_topology on a mesh whose links at
    # vertices 10 and 20 are two cycles each
    slots = pinched(octagon2).edge_slots
    other = slots[:, ::-1].ravel()
    turn_list = np.stack([slots.ravel(), other - other % 3 + (other + 1) % 3], axis=1)
    turn = np.empty_like(other)
    turn[turn_list[:, 0]] = turn_list[:, 1]
    assert np.array_equal(np.sort(turn), np.arange(turn.size))
    assert np.array_equal(cycle_minima(turn), vertex_components(turn.size, turn_list))


PAIRED_MESHES = {
    **{f"octagon{k}": lambda levels, k=k: levels[k].mesh for k in range(4)},
    "tetra": lambda levels: load_mesh(TETRA_TEXT)[0],
    "pinched": lambda levels: pinched(levels[2]),
    "degenerate": lambda levels: load_mesh(
        dump_mesh(levels[2].mesh, degenerate_lengths(levels[2])))[0],
    "reversed": lambda levels: reversed_spokes(levels[0]),
}


@pytest.mark.parametrize("name", PAIRED_MESHES)
def test_edge_slots_pair_each_edge(octagon_levels, name):
    mesh = PAIRED_MESHES[name](octagon_levels)
    slots, E = mesh.edge_slots, mesh.edge_count
    assert slots.shape == (E, 2)
    assert (slots[:, 0] < slots[:, 1]).all()
    assert (mesh.face_edges.ravel()[slots] == np.arange(E)[:, None]).all()
    with pytest.raises(ValueError, match="read-only"):
        slots[0, 0] = 0

    ends = mesh.slot_ends
    assert ends.shape == (2, mesh.face_count, 3) and ends.flags.c_contiguous
    for j in (0, 1):
        assert np.array_equal(ends[j], mesh.edges[mesh.face_edges, j])
    # the corner of a slot is the tail of its directed edge: end 0 walked
    # forward, end 1 walked backward
    assert np.array_equal(mesh.face_corners,
                          np.choose(mesh.face_signs < 0, ends))
    with pytest.raises(ValueError, match="read-only"):
        ends[0, 0, 0] = 0


@pytest.mark.parametrize("edit", [lambda l: l[:-1], lambda l: np.r_[l, 1.0],
                                  lambda l: np.r_[np.nan, l[1:]],
                                  lambda l: np.r_[l[:-1], np.inf],
                                  lambda l: np.r_[l[:-1], 0.0]],
                         ids=["short", "long", "nan", "inf", "zero"])
def test_dump_mesh_takes_one_valid_length_per_edge(octagon1, edit):
    # zip would drop the surplus, or write a file that does not load
    with pytest.raises(ValueError, match=r"^lengths must be 48 finite values > 0$"):
        dump_mesh(octagon1.mesh, edit(octagon1.lengths))


def test_reader_maps_ids_to_indices(octagon2):
    # permuted ids, and each face written right after the last edge it uses
    m, E = octagon2.mesh, octagon2.mesh.edge_count
    rng = np.random.default_rng(7)
    relabelled = SurfaceMesh(m.vertex_count, m.edges, m.face_edges, m.face_signs,
                             rng.permutation(E), rng.permutation(m.face_count))
    canonical = dump_mesh(relabelled, octagon2.lengths)
    lines = canonical.splitlines()
    edge_lines, face_lines = lines[2:2 + E], lines[2 + E:]
    out, written = lines[:2], 0
    for row, face_line in zip(m.face_edges.tolist(), face_lines):
        out += edge_lines[written:max(row) + 1]
        written = max(written, max(row) + 1)
        out.append(face_line)
    text = "\n".join(out + edge_lines[written:]) + "\n"
    assert text.index("\nf ") < text.rindex("\ne ")

    mesh, lengths = load_mesh(text)
    for name in ("edges", "face_edges", "face_signs", "edge_ids", "face_ids"):
        assert np.array_equal(getattr(mesh, name), getattr(relabelled, name)), name
    assert np.array_equal(lengths, octagon2.lengths)
    assert dump_mesh(mesh, lengths) == canonical
    assert dump_mesh(*load_mesh(canonical)) == canonical


def test_negative_ids_round_trip(octagon1):
    # a reference to edge -3 is written +-3 or --3: the first sign is the
    # direction, the rest is the id
    m = octagon1.mesh
    signed = SurfaceMesh(m.vertex_count, m.edges, m.face_edges, m.face_signs,
                         -1 - np.arange(m.edge_count), -1 - np.arange(m.face_count))
    text = dump_mesh(signed, octagon1.lengths)
    assert "\ne -1 " in text and "\nf -1 " in text
    assert " +-" in text and " --" in text
    mesh, lengths = load_mesh(text)
    for name in ("edges", "face_edges", "face_signs", "edge_ids", "face_ids"):
        assert np.array_equal(getattr(mesh, name), getattr(signed, name)), name
    assert np.array_equal(mesh.face_signs, m.face_signs)
    assert dump_mesh(mesh, lengths) == text


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
    signs = np.ones((len(face_edges), 3), dtype=np.int64)
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


MESH_ARGS = ("vertex_count", "edges", "face_edges", "face_signs", "edge_ids",
             "face_ids")


def _octagon0_with(**change):
    """A build of the mesh with the named SurfaceMesh arguments changed; a
    callable maps the mesh's own argument to the new one."""
    def build(m):
        args = {name: getattr(m, name) for name in MESH_ARGS}
        for name, new in change.items():
            args[name] = new(args[name]) if callable(new) else new
        return SurfaceMesh(**args)
    return build


def _edited_after_build(m):
    """Builds from a copy of the mesh's edges, edits the copy, and builds
    again: the first mesh keeps edges of its own (it used to keep the copy
    itself, read-only, so the edit raised numpy's read-only error)."""
    edges = m.edges.copy()
    first = _octagon0_with(edges=edges)(m)
    edges[0, 0] = -1
    assert not np.shares_memory(first.edges, edges)
    assert np.array_equal(first.edges, m.edges)
    return _octagon0_with(edges=edges)(m)


@pytest.mark.parametrize("build, message", [
    (lambda m: SurfaceMesh(0, np.empty((0, 2)), np.empty((0, 3)), np.empty((0, 3)),
                           [], []), "^mesh has no faces$"),
    (_octagon0_with(vertex_count=2.0), "^vertex count must be an integer > 0$"),
    (_octagon0_with(vertex_count=0), "^vertex count must be an integer > 0$"),
    (_octagon0_with(vertex_count=-3), "^vertex count must be an integer > 0$"),
    (_octagon0_with(edge_ids=[0, 1, 2]), "one id per edge and face"),
    (_octagon0_with(face_ids=[0, 1, 2]), "one id per edge and face"),
    (_octagon0_with(face_ids=np.arange(8)[:, None]), "one id per edge and face"),
    (_octagon0_with(edge_ids=7), "one id per edge and face"),
    (_octagon0_with(edges=lambda e: np.c_[e, np.zeros_like(e[:, 0])]),
     r"^edges, face_edges and face_signs must be \(E, 2\), \(F, 3\) and \(F, 3\)"),
    (_octagon0_with(face_signs=lambda s: s[:-1]), r"must be \(E, 2\), \(F, 3\)"),
    (_octagon0_with(face_signs=lambda s: s[:, :2]), r"must be \(E, 2\), \(F, 3\)"),
    (_octagon0_with(face_edges=[[0, 1, 2], [3, 4]]), "^mesh arrays must be integer"),
    (_edited_after_build, "^edge endpoint out of vertex range$"),
], ids=["no-faces", "vertex-count-float", "vertex-count-0", "vertex-count-negative",
        "3-edge-ids", "3-face-ids", "face-ids-column", "edge-id-scalar",
        "edges-3-columns", "face-signs-short", "face-signs-2-columns",
        "face-edges-ragged", "edges-edited-after-build"])
def test_surface_mesh_owns_counts_and_id_columns(octagon0, build, message):
    # each used to build, then fail later with an IndexError, a short file,
    # numpy's broadcast error or a silently truncated array
    with pytest.raises(MeshError, match=message):
        build(octagon0.mesh)


def test_curvature_reader_refuses_repeated_face_ids(octagon0):
    # the faces of id 0 would share one curvature line
    m = octagon0.mesh
    twice = _octagon0_with(face_ids=np.r_[0, np.arange(m.face_count - 1)])(m)
    text = "".join(f"k {f} -1\n" for f in range(m.face_count - 1))
    with pytest.raises(MeshError, match="^mesh has duplicate face id 0$"):
        load_face_curvature(text, twice)


def _end_of(surface, args):
    """Where a mesh built in code from the SurfaceMesh arguments ``args`` ends:
    "SurfaceMesh" (MeshError), "dump_mesh" (ValueError) or "round trip", once
    load_mesh gives its arrays back."""
    try:
        mesh = SurfaceMesh(**args)
    except MeshError:
        return "SurfaceMesh"
    try:
        text = dump_mesh(mesh, surface.lengths)
    except ValueError:
        return "dump_mesh"
    loaded, lengths = load_mesh(text)
    assert loaded.vertex_count == mesh.vertex_count
    for name in ("edges", "face_edges", "face_signs", "edge_ids", "face_ids"):
        assert np.array_equal(getattr(loaded, name), getattr(mesh, name)), name
    assert np.array_equal(lengths, surface.lengths)
    return "round trip"


def _repeat(ids, rng):
    i, j = rng.choice(len(ids), 2, replace=False)
    ids[i] = ids[j]
    return ids


# mutation: ({SurfaceMesh argument: its edit, given the rng}, where the draw
# must end); the ids are shuffled first
ID_MUTATIONS = {
    "none": ({}, "round trip"),
    "vertex-count-int64": ({"vertex_count": lambda V, rng: np.int64(V)}, "round trip"),
    "repeat-edge-id": ({"edge_ids": _repeat}, "dump_mesh"),
    "repeat-face-id": ({"face_ids": _repeat}, "dump_mesh"),
    "drop-last-edge-id": ({"edge_ids": lambda e, rng: e[:-1]}, "SurfaceMesh"),
    "drop-last-face-id": ({"face_ids": lambda f, rng: f[:-1]}, "SurfaceMesh"),
    "vertex-count-0": ({"vertex_count": lambda V, rng: 0}, "SurfaceMesh"),
    "vertex-count-2.5": ({"vertex_count": lambda V, rng: 2.5}, "SurfaceMesh"),
    "edges-extra-column": ({"edges": lambda a, rng: np.c_[a, np.zeros_like(a[:, 0])]},
                           "SurfaceMesh"),
    "edges-first-column": ({"edges": lambda a, rng: a[:, 0]}, "SurfaceMesh"),
    "drop-last-sign-row": ({"face_signs": lambda a, rng: a[:-1]}, "SurfaceMesh"),
    "drop-face-edge-column": (
        {"face_edges": lambda a, rng: np.delete(a, rng.integers(3), axis=1)},
        "SurfaceMesh"),
    "signs-times-1.5": ({"face_signs": lambda a, rng: a * 1.5}, "SurfaceMesh"),
    "edges-plus-0.5": ({"edges": lambda a, rng: a + 0.5}, "SurfaceMesh"),
    "edges-complex": ({"edges": lambda a, rng: a.astype(complex)}, "SurfaceMesh"),
}


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2), st.sampled_from(list(ID_MUTATIONS)),
       st.integers(0, 2**32 - 1))
def test_code_built_mesh_is_refused_once_or_round_trips(octagon_levels, level,
                                                        mutation, seed):
    # never an IndexError or a numpy error, and never a file that load_mesh
    # refuses
    surface, rng = octagon_levels[level], np.random.default_rng(seed)
    edits, expected = ID_MUTATIONS[mutation]
    args = {name: getattr(surface.mesh, name) for name in MESH_ARGS}
    for name in ("edge_ids", "face_ids"):
        args[name] = rng.permutation(args[name])
    for name, edit in edits.items():
        args[name] = edit(args[name], rng)
    assert _end_of(surface, args) == expected


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


# str.splitlines also breaks lines at these; the file formats, like
# Path.read_text, break them only at LF, CRLF and CR
SPLITLINES_ONLY_BREAKS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"


@pytest.mark.parametrize("char", SPLITLINES_ONLY_BREAKS,
                         ids=lambda c: f"U+{ord(c):04X}")
def test_comment_runs_to_end_of_line(char):
    # record-like text after the character is comment, and no later line
    # number shifts
    mesh_text = TETRA_TEXT.replace("v 4", f"v 4 # was:{char}e 0 0 1 9.5")
    mesh, lengths = load_mesh(mesh_text)
    assert dump_mesh(mesh, lengths) == dump_mesh(*load_mesh(TETRA_TEXT))
    with pytest.raises(MeshError) as err:
        load_mesh(edited(mesh_text, "f 3", "q 3"))
    assert str(err.value) == "line 12: unknown record 'q'"
    kappa_text = TETRA_KAPPA.replace("k 0 -1.5", f"k 0 -1.5 # page{char}k 1 -9")
    assert load_face_curvature(kappa_text, mesh).tolist() == [-1.5] * 4


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_line_endings(newline):
    mesh, lengths = load_mesh(TETRA_TEXT.replace("\n", newline))
    assert dump_mesh(mesh, lengths) == dump_mesh(*load_mesh(TETRA_TEXT))
    with pytest.raises(MeshError) as err:
        load_mesh(edited(TETRA_TEXT, "f 3", "q 3").replace("\n", newline))
    assert str(err.value) == "line 12: unknown record 'q'"
    kappa = load_face_curvature(TETRA_KAPPA.replace("\n", newline), mesh)
    assert kappa.tolist() == [-1.5] * 4
