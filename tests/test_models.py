import math
from collections import deque

import numpy as np
import pytest

from dcpm.geometry import curvature_from_angles, triangle_angles
from dcpm.mesh import validate_topology
from dcpm.models import (CSV_HEADER, convergence_study, dual_distance_kappa,
                         embed_triangle, gen_octagon_genus2,
                         geodesic_midpoint, hyperbolic_distance,
                         minkowski_dot, octagon_fixture, refine_midpoint,
                         rows_to_csv)

# frozen oracle values for the regular pi/4-cornered hyperbolic octagon
SPOKE_LEN = 2.44845244767807579    # arccosh(cot^2(pi/8))
SIDE_LEN = 3.0571418389619963      # 2*asinh(sin(pi/8)*sinh(spoke))


# -- hyperboloid helpers -------------------------------------------------------

def test_minkowski_basics():
    o = np.array([0.0, 0.0, 1.0])
    assert minkowski_dot(o, o) == -1.0
    assert hyperbolic_distance(o, o) == 0.0


def test_distance_along_geodesic():
    t = 1.3
    p = np.array([0.0, 0.0, 1.0])
    q = np.array([math.sinh(t), 0.0, math.cosh(t)])
    assert hyperbolic_distance(p, q) == pytest.approx(t, rel=1e-14)
    mid = geodesic_midpoint(p, q)
    assert hyperbolic_distance(p, mid) == pytest.approx(t / 2, rel=1e-12)
    assert hyperbolic_distance(mid, q) == pytest.approx(t / 2, rel=1e-12)
    assert minkowski_dot(mid, mid) == pytest.approx(-1.0, rel=1e-14)


def test_embed_triangle_side_lengths():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a, b, c = np.exp(rng.uniform(-1, 1, 3))
        try:
            pts = embed_triangle(a, b, c)
        except ValueError:
            continue
        assert hyperbolic_distance(pts[0], pts[1]) == pytest.approx(a, rel=1e-12)
        assert hyperbolic_distance(pts[0], pts[2]) == pytest.approx(b, rel=1e-12)
        assert hyperbolic_distance(pts[1], pts[2]) == pytest.approx(c, rel=1e-12)


def test_embed_triangle_rejects_infeasible():
    with pytest.raises(ValueError):
        embed_triangle(3.0, 0.5, 0.5)


# -- octagon fixture -----------------------------------------------------------

def test_octagon_lengths():
    m = gen_octagon_genus2()
    np.testing.assert_allclose(m.lengths[:8], SPOKE_LEN, rtol=1e-15)
    np.testing.assert_allclose(m.lengths[8:], SIDE_LEN, rtol=1e-15)


def test_octagon_is_honest_hyperbolic(octagon_levels):
    # the stored lengths in the curvature -1 law of cosines: angle sums 2*pi
    for m in octagon_levels:
        angles = triangle_angles(m.lengths[m.mesh.face_edges])
        assert np.abs(curvature_from_angles(m.mesh, angles)).max() <= 1e-12


def test_refinement_counts(octagon_levels):
    for m0, m1 in zip(octagon_levels, octagon_levels[1:]):
        V, E, F = (m0.mesh.vertex_count, m0.mesh.edge_count,
                   m0.mesh.face_count)
        assert m1.mesh.vertex_count == V + E
        assert m1.mesh.edge_count == 2 * E + 3 * F
        assert m1.mesh.face_count == 4 * F
        assert validate_topology(m1.mesh).violations == []
        assert m1.mesh.genus == 2


def test_refinement_halves_max_length(octagon_levels):
    for m0, m1 in zip(octagon_levels, octagon_levels[1:]):
        assert m1.lengths.max() <= 0.5 * m0.lengths.max() + 1e-15
        # halves of old edges are exactly half length
        assert m1.lengths[0] == m0.lengths[0] / 2.0


def test_refinement_is_simplicial_from_level2(octagon_levels):
    assert not validate_topology(octagon_levels[1].mesh).is_simplicial
    assert validate_topology(octagon_levels[2].mesh).is_simplicial


def test_octagon_fixture_rejects_negative_level():
    with pytest.raises(ValueError, match="level must be an integer >= 0"):
        octagon_fixture(-1)
    with pytest.raises(ValueError, match="level must be an integer >= 0"):
        octagon_fixture(1.5)


def test_octagon_fixture_matches_levels(octagon_levels):
    m = octagon_fixture(2)
    assert np.array_equal(m.mesh.edges, octagon_levels[2].mesh.edges)
    np.testing.assert_array_equal(m.lengths, octagon_levels[2].lengths)


def loop_refine(m):
    """Reference: per-face loop form of midpoint refinement.

    Returns (edges, face_edges, face_signs, lengths) of the refined mesh.
    """
    mesh, lengths = m.mesh, m.lengths
    V, E, F = mesh.vertex_count, mesh.edge_count, mesh.face_count
    edges = np.empty((2 * E + 3 * F, 2), dtype=np.int64)
    new_lengths = np.empty(2 * E + 3 * F)
    for e in range(E):
        a, b = mesh.edges[e]
        edges[2 * e], edges[2 * e + 1] = (a, V + e), (V + e, b)
        new_lengths[2 * e] = new_lengths[2 * e + 1] = lengths[e] / 2.0
    face_edges = np.empty((4 * F, 3), dtype=np.int64)
    face_signs = np.empty((4 * F, 3), dtype=np.int64)
    for f in range(F):
        fe, fs = mesh.face_edges[f], mesh.face_signs[f]
        ls = lengths[fe]
        pts = embed_triangle(ls[0], ls[2], ls[1])
        mids = [geodesic_midpoint(pts[s], pts[(s + 1) % 3]) for s in range(3)]
        inner = [2 * E + 3 * f + s for s in range(3)]
        for s in range(3):
            edges[inner[s]] = (V + fe[s], V + fe[(s + 1) % 3])
            new_lengths[inner[s]] = float(
                hyperbolic_distance(mids[s], mids[(s + 1) % 3]))
            e_out = 2 * fe[s] if fs[s] > 0 else 2 * fe[s] + 1
            p = (s - 1) % 3
            e_in = 2 * fe[p] + 1 if fs[p] > 0 else 2 * fe[p]
            face_edges[4 * f + s] = (e_out, inner[p], e_in)
            face_signs[4 * f + s] = (1 if fs[s] > 0 else -1, -1,
                                     1 if fs[p] > 0 else -1)
        face_edges[4 * f + 3] = inner
        face_signs[4 * f + 3] = (1, 1, 1)
    return edges, face_edges, face_signs, new_lengths


@pytest.mark.parametrize("level", [0, 1, 2])
def test_refine_midpoint_matches_loop_reference(octagon_levels, level):
    coarse, fine = octagon_levels[level], octagon_levels[level + 1]
    edges, face_edges, face_signs, lengths = loop_refine(coarse)
    np.testing.assert_array_equal(fine.mesh.edges, edges)
    np.testing.assert_array_equal(fine.mesh.face_edges, face_edges)
    np.testing.assert_array_equal(fine.mesh.face_signs, face_signs)
    assert fine.lengths.tobytes() == lengths.tobytes()     # bit for bit


# -- curvature families --------------------------------------------------------

def test_dual_distance_kappa(octagon1):
    kappa = dual_distance_kappa(octagon1.mesh, 0.3)
    assert kappa.shape == (octagon1.mesh.face_count,)
    assert (kappa < 0).all()
    assert kappa.min() == -1.0
    assert kappa.max() == pytest.approx(-0.7)
    with pytest.raises(ValueError):
        dual_distance_kappa(octagon1.mesh, 1.0)


def bfs_dual_distance(mesh):
    """Reference: dual-graph distance of each face from face 0, by a queue."""
    faces_at = [[] for _ in range(mesh.edge_count)]
    for f, row in enumerate(mesh.face_edges.tolist()):
        for e in row:
            faces_at[e].append(f)
    dist = [-1] * mesh.face_count
    dist[0] = 0
    queue = deque([0])
    while queue:
        f = queue.popleft()
        for e in mesh.face_edges[f].tolist():
            for g in faces_at[e]:
                if dist[g] < 0:
                    dist[g] = dist[f] + 1
                    queue.append(g)
    return np.array(dist)


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_dual_distance_kappa_matches_bfs(octagon_levels, level):
    mesh = octagon_levels[level].mesh
    dist = bfs_dual_distance(mesh)
    expected = -1.0 + 0.5 * (dist / max(int(dist.max()), 1))
    assert (dist >= 0).all()
    assert np.array_equal(dual_distance_kappa(mesh, 0.5), expected)


@pytest.mark.parametrize("amplitude", [-np.inf, np.inf, np.nan])
def test_dual_distance_kappa_rejects_non_finite_amplitude(octagon1, amplitude):
    # -inf * 0 at face 0 would be a NaN curvature
    with pytest.raises(ValueError, match="finite"):
        dual_distance_kappa(octagon1.mesh, amplitude)


# -- convergence study ---------------------------------------------------------

def test_convergence_study_levels():
    rows = convergence_study(3)
    assert [r.level for r in rows] == [0, 1, 2]
    assert all(r.converged for r in rows)
    assert all(r.residual <= 1e-10 for r in rows)
    # mesh size halves each level, discretization error shrinks with it
    assert rows[1].max_len == pytest.approx(rows[0].max_len / 2, rel=1e-12)
    assert rows[2].error_inf < rows[1].error_inf < rows[0].error_inf


def test_convergence_study_scaled_kappa_matches_reference():
    # u*(-1.5) = u*(-1) - log(1.5), so measured against -log(-kappa) the
    # error of each level is the kappa = -1 error
    reference = convergence_study(2)
    rows = convergence_study(2, kappa_value=-1.5)
    assert all(r.converged for r in rows)
    for row, ref in zip(rows, reference, strict=True):
        assert math.isfinite(row.error_inf)
        assert abs(row.error_inf - ref.error_inf) <= 1e-9


def test_rows_to_csv_shape():
    rows = convergence_study(2)
    text = rows_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    assert lines[1].startswith("0,")
    # deterministic output: rerunning gives the identical file
    assert rows_to_csv(convergence_study(2)) == text


def test_convergence_study_rejects_bad_levels():
    with pytest.raises(ValueError):
        convergence_study(0)
    with pytest.raises(ValueError, match="levels must be an integer >= 1"):
        convergence_study(2.5)


@pytest.mark.parametrize("kappa_value", [0.0, 1.0, math.nan, -math.inf])
def test_convergence_study_rejects_bad_kappa_value(kappa_value):
    # each used to end in an InfeasibleFaceError naming every face of level 0
    with pytest.raises(ValueError, match="^kappa_value must be finite and < 0$"):
        convergence_study(1, kappa_value)
