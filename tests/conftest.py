import sys

import numpy as np
import pytest

from dcpm import models
from dcpm.mesh import load_mesh

# Unit tetrahedron: smallest closed oriented simplicial surface (genus 0).
TETRA_TEXT = """\
DCPM 1
v 4
e 0 0 1 1.0
e 1 0 2 1.0
e 2 0 3 1.0
e 3 1 2 1.0
e 4 1 3 1.0
e 5 2 3 1.0
f 0 +0 +3 -1
f 1 +1 +5 -2
f 2 +2 -4 -0
f 3 +4 -5 -3
"""

# Two triangles glued along all three edges ("pillow", genus 0): handy for
# exercising per-face geometry on a closed mesh with arbitrary lengths.
PILLOW_TEXT = """\
DCPM 1
v 3
e 0 0 1 {l0}
e 1 1 2 {l1}
e 2 2 0 {l2}
f 0 +0 +1 +2
f 1 -0 -2 -1
"""


@pytest.fixture
def tetra():
    return load_mesh(TETRA_TEXT)


def make_pillow(l0, l1, l2):
    return load_mesh(PILLOW_TEXT.format(l0=repr(l0), l1=repr(l1), l2=repr(l2)))


@pytest.fixture(scope="session")
def octagon_levels():
    """Octagon fixture refined to levels 0..3, built once per session."""
    out = [models.gen_octagon_genus2()]
    for _ in range(3):
        out.append(models.refine_midpoint(out[-1]))
    return out


@pytest.fixture(scope="session")
def octagon0(octagon_levels):
    return octagon_levels[0]


@pytest.fixture(scope="session")
def octagon1(octagon_levels):
    return octagon_levels[1]


@pytest.fixture(scope="session")
def octagon2(octagon_levels):
    return octagon_levels[2]


def octagon_charts(top):
    """The octagon fixture at levels 0..top, each with a chart: the
    hyperboloid points of every face's corners, (F, 3, 3), in the corner
    order of ``mesh.face_corners``.

    Level 0 puts the centre c at (0, 0, 1) and rim point P_k at distance
    ``spoke`` and angle 2 pi k / 8, and face i is [c, P_i, P_{i+1}].  Each
    refinement takes the geodesic midpoints m_s of a face's sides X_s X_{s+1};
    child 4f+s is [X_s, m_s, m_{s-1}] and child 4f+3 is [m_0, m_1, m_2], the
    face order of ``refine_midpoint``.
    """
    m = models.gen_octagon_genus2()
    spoke, angle = m.lengths[0], 2 * np.pi * np.arange(9) / 8
    rim = np.stack([np.sinh(spoke) * np.cos(angle),
                    np.sinh(spoke) * np.sin(angle),
                    np.full(9, np.cosh(spoke))], axis=1)
    X = np.stack([np.tile([0.0, 0.0, 1.0], (8, 1)), rim[:-1], rim[1:]], axis=1)
    out = [(m, X)]
    for _ in range(top):
        mid = models.geodesic_midpoint(X, np.roll(X, -1, axis=1))
        corners = np.stack([X, mid, np.roll(mid, 1, axis=1)], axis=2)
        X = np.concatenate([corners, mid[:, None]], axis=1).reshape(-1, 3, 3)
        m = models.refine_midpoint(m)
        out.append((m, X))
    return out


def degenerate_lengths(m):
    """Level-2 octagon lengths with face 3 (edges 96, 97, 98) nearly flat at
    kappa = -1: H_98 = 0.999 (H_96 + H_97), start margin -1.477."""
    lengths = m.lengths.copy()
    H = 2 * np.arcsinh(lengths / 2)
    lengths[98] = 2 * np.sinh(0.999 * (H[96] + H[97]) / 2)
    return lengths


def needle_lengths(m):
    """Level-0 octagon lengths with needle faces at kappa = -1: the loop
    edges 8-11 are 1e-9 long and the odd spokes 0.9999e-9 shorter than the
    even ones.  Every face is feasible, but rounding in ``triangle_angles``
    puts its angle sum 6.7e-8 above pi, so the smallest half angle is
    -3.3e-8 and no Newton direction exists at u = 0."""
    lengths = m.lengths.copy()
    lengths[8:] = 1e-9
    lengths[1:8:2] = lengths[0] - 0.9999e-9
    return lengths


def pinched(m):
    """The mesh of ``m`` with vertex 40 glued to 10 and 50 to 20: a genus-3
    Euler characteristic, but not a surface (both links are two cycles)."""
    from dcpm.mesh import SurfaceMesh

    glue = np.arange(m.mesh.vertex_count)
    glue[[40, 50]] = [10, 20]
    relabel = np.unique(glue, return_inverse=True)[1]
    s = m.mesh
    return SurfaceMesh(int(relabel.max()) + 1, relabel[s.edges], s.face_edges,
                       s.face_signs, s.edge_ids, s.face_ids)


def reversed_spokes(m):
    """The level-0 octagon mesh of ``m`` with every other spoke stored b -> a:
    the 8 spokes join the same two vertices, so parallel edges list their
    endpoints in both orders."""
    from dcpm.mesh import SurfaceMesh

    s = m.mesh
    flip = (np.arange(s.edge_count) % 2 == 1) & (s.edges[:, 0] != s.edges[:, 1])
    return SurfaceMesh(s.vertex_count,
                       np.where(flip[:, None], s.edges[:, ::-1], s.edges),
                       s.face_edges,
                       np.where(flip[s.face_edges], -s.face_signs, s.face_signs),
                       s.edge_ids, s.face_ids)


def random_feasible_instance(m, rng, kappa_range=(-2.0, -0.5), u_scale=0.1):
    """Random per-face curvature and small conformal factor on a fixture."""
    kappa = rng.uniform(*kappa_range, m.mesh.face_count)
    u = rng.uniform(-u_scale, u_scale, m.mesh.vertex_count)
    return kappa, u


def _at(assemble, mesh, kappa, u, lengths):
    from dcpm.geometry import evaluate_point

    return assemble(mesh, kappa, evaluate_point(mesh, kappa, u, lengths, False))


def jacobian_at(mesh, kappa, u, lengths):
    """``assemble_jacobian``, the CSC J, at u from one angle evaluation."""
    from dcpm.jacobian import assemble_jacobian

    return _at(assemble_jacobian, mesh, kappa, u, lengths)


def weights_at(mesh, kappa, u, lengths):
    """``jacobian_weights``, (eta, diag), at u from one angle evaluation."""
    from dcpm.jacobian import jacobian_weights

    return _at(jacobian_weights, mesh, kappa, u, lengths)


def fd_jacobian(mesh, kappa, u, lengths, h=1e-6):
    """Central finite differences of the discrete curvature map."""
    from dcpm.geometry import discrete_curvature

    n = mesh.vertex_count
    J = np.empty((n, n))
    for j in range(n):
        up, um = u.copy(), u.copy()
        up[j] += h
        um[j] -= h
        J[:, j] = (discrete_curvature(mesh, kappa, up, lengths)
                   - discrete_curvature(mesh, kappa, um, lengths)) / (2.0 * h)
    return J


def count_calls(monkeypatch, function):
    """List that grows by one per call of ``function``.

    Every ``dcpm`` module attribute bound to the function is patched, so
    calls through ``from .geometry import corner_angles`` copies count too.
    """
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return function(*args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").split(".")[0] == "dcpm":
            for key, value in list(vars(module).items()):
                if value is function:
                    monkeypatch.setattr(module, key, counted)
    return calls


@pytest.fixture
def corner_angle_calls(monkeypatch):
    """Calls of ``geometry.corner_angles``, the one angle evaluation."""
    from dcpm import geometry

    return count_calls(monkeypatch, geometry.corner_angles)


@pytest.fixture
def curvature_calls(monkeypatch):
    """Calls of ``geometry.curvature_from_angles``, K from evaluated angles."""
    from dcpm import geometry

    return count_calls(monkeypatch, geometry.curvature_from_angles)


@pytest.fixture
def topology_calls(monkeypatch):
    """Calls of ``mesh.validate_topology``."""
    from dcpm import mesh

    return count_calls(monkeypatch, mesh.validate_topology)


@pytest.fixture
def factorizations(monkeypatch):
    """Calls of ``solver.solve_linear_spd``, the fresh-factor path."""
    from dcpm import solver

    return count_calls(monkeypatch, solver.solve_linear_spd)
