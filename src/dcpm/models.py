"""Exact genus-2 hyperbolic test fixtures and refinement convergence studies.

The base fixture is the regular hyperbolic octagon with all corner angles
pi/4, boundary glued by the standard genus-2 identification, triangulated by
center spokes.  Midpoint refinement computes the new geodesic lengths exactly
in the hyperboloid model, so every level is an honest curvature -1 surface:
true hyperbolic angle sums are 2*pi around every vertex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .mesh import SurfaceMesh
from .solver import _check_count, newton_solve


@dataclass(eq=False)
class ModelSurface:
    mesh: SurfaceMesh
    lengths: np.ndarray


# -- hyperboloid (Minkowski) model helpers ----------------------------------

def minkowski_dot(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return p[..., 0] * q[..., 0] + p[..., 1] * q[..., 1] - p[..., 2] * q[..., 2]


def hyperbolic_distance(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return np.arccosh(np.maximum(-minkowski_dot(p, q), 1.0))


def geodesic_midpoint(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    s = p + q
    return s / np.sqrt(-minkowski_dot(s, s))[..., None]


def embed_triangle(l01: float, l02: float, l12: float) -> np.ndarray:
    """Embed a hyperbolic triangle with the given side lengths; (3, 3) points."""
    c = (math.cosh(l01) * math.cosh(l02) - math.cosh(l12)) / (
        math.sinh(l01) * math.sinh(l02))
    if not -1.0 < c < 1.0:
        raise ValueError("side lengths violate the triangle inequality")
    phi = math.acos(c)
    return np.array([
        [0.0, 0.0, 1.0],
        [math.sinh(l01), 0.0, math.cosh(l01)],
        [math.sinh(l02) * math.cos(phi), math.sinh(l02) * math.sin(phi),
         math.cosh(l02)],
    ])


# -- fixtures ----------------------------------------------------------------

def gen_octagon_genus2() -> ModelSurface:
    """Regular hyperbolic octagon, boundary glued aba'b'cdc'd', 8 spoke faces.

    Vertex 0 is the octagon center, vertex 1 the single glued rim vertex;
    12 edges (8 spokes, 4 identified sides) and 8 faces give chi = -2.
    Spoke length arccosh(cot^2(pi/8)), side 2*asinh(sin(pi/8)*sinh(spoke)).
    """
    spoke_len = math.acosh(1.0 / math.tan(math.pi / 8) ** 2)
    side_len = 2.0 * math.asinh(math.sin(math.pi / 8) * math.sinh(spoke_len))

    edges = [(0, 1)] * 8 + [(1, 1)] * 4     # spokes 0..7, sides a,b,c,d = 8..11
    # octagon boundary word a b a^-1 b^-1 c d c^-1 d^-1
    side_seq = [(8, 1), (9, 1), (8, -1), (9, -1),
                (10, 1), (11, 1), (10, -1), (11, -1)]
    face_edges, face_signs = [], []
    for i in range(8):
        side, sgn = side_seq[i]
        face_edges.append([i, side, (i + 1) % 8])
        face_signs.append([1, sgn, -1])

    mesh = SurfaceMesh(vertex_count=2,
                       edges=np.array(edges),
                       face_edges=np.array(face_edges),
                       face_signs=np.array(face_signs),
                       edge_ids=np.arange(12),
                       face_ids=np.arange(8))
    lengths = np.array([spoke_len] * 8 + [side_len] * 4)
    return ModelSurface(mesh=mesh, lengths=lengths)


def refine_midpoint(m: ModelSurface) -> ModelSurface:
    """Split each face 1 -> 4 at geodesic edge midpoints.

    One new vertex per edge id, so identified edges share their midpoint
    combinatorially.  Halves of an edge keep length l/2 exactly; the three
    inner lengths per face are measured in a hyperboloid embedding of that
    face.
    """
    mesh, lengths = m.mesh, m.lengths
    V, E, F = mesh.vertex_count, mesh.edge_count, mesh.face_count
    fe = mesh.face_edges

    # new edges: halves 2e (tail -> mid) and 2e+1 (mid -> head), then
    # inner edges 2E + 3f + s connecting midpoints of face f's sides s, s+1
    mids = V + np.arange(E)
    halves = np.stack([mesh.edges[:, 0], mids, mids, mesh.edges[:, 1]], axis=1)
    inner_edges = np.stack([V + fe, V + np.roll(fe, -1, axis=1)], axis=2)
    new_edges = np.concatenate([halves.reshape(-1, 2), inner_edges.reshape(-1, 2)])

    # corners c0, c1, c2 of each face in the hyperboloid, then the inner
    # lengths between geodesic midpoints of sides s and s+1
    corners = np.array([embed_triangle(l0, l2, l1)
                        for l0, l1, l2 in lengths[fe].tolist()]).reshape(F, 3, 3)
    side_mids = geodesic_midpoint(corners, np.roll(corners, -1, axis=1))
    inner_lengths = hyperbolic_distance(side_mids, np.roll(side_mids, -1, axis=1))
    new_lengths = np.concatenate([np.repeat(lengths / 2.0, 2), inner_lengths.ravel()])

    # corner face 4f+s: the half of side s leaving corner s, the inner edge
    # across the corner, the half of side s-1 arriving at corner s; then the
    # inner face 4f+3
    sign = mesh.face_signs
    forward = sign > 0
    out_half = 2 * fe + ~forward
    in_half = np.roll(2 * fe + forward, 1, axis=1)
    inner = 2 * E + np.arange(3 * F).reshape(F, 3)
    corner_faces = np.stack([out_half, np.roll(inner, 1, axis=1), in_half], axis=2)
    corner_signs = np.stack([sign, -np.ones_like(sign), np.roll(sign, 1, axis=1)],
                            axis=2)
    new_face_edges = np.concatenate([corner_faces, inner[:, None]], axis=1)
    new_face_signs = np.concatenate([corner_signs, np.ones((F, 1, 3), np.int64)],
                                    axis=1)

    new_mesh = SurfaceMesh(vertex_count=V + E,
                           edges=new_edges,
                           face_edges=new_face_edges.reshape(-1, 3),
                           face_signs=new_face_signs.reshape(-1, 3),
                           edge_ids=np.arange(2 * E + 3 * F),
                           face_ids=np.arange(4 * F))
    return ModelSurface(mesh=new_mesh, lengths=new_lengths)


def octagon_fixture(level: int) -> ModelSurface:
    """Octagon model refined ``level`` times, an integer >= 0 (else ValueError)."""
    _check_count("level", level, minimum=0)
    m = gen_octagon_genus2()
    for _ in range(level):
        m = refine_midpoint(m)
    return m


def dual_distance_kappa(mesh: SurfaceMesh, amplitude: float) -> np.ndarray:
    """Non-constant curvature family kappa = -1 + amplitude * s(face).

    s is the dual-graph distance from face 0, normalized to [0, 1]; needs
    amplitude < 1 to stay negative.  No analytic reference solution exists
    for these, so they serve uniqueness and cross-method tests only.
    """
    if not -np.inf < amplitude < 1.0:
        raise ValueError("amplitude must be finite and < 1 to keep kappa negative")
    # the two faces at each edge (every edge has exactly two face slots)
    f1, f2 = (mesh.edge_slots // 3).T
    dist = np.full(mesh.face_count, -1, dtype=np.int64)
    dist[0] = 0
    frontier = dist == 0
    while frontier.any():
        reached = np.zeros(mesh.face_count, dtype=bool)
        reached[f2[frontier[f1]]] = True
        reached[f1[frontier[f2]]] = True
        frontier = reached & (dist < 0)
        dist[frontier] = dist.max() + 1
    s = dist / max(int(dist.max()), 1)
    return -1.0 + amplitude * s


# -- convergence study --------------------------------------------------------

@dataclass
class StudyRow:
    level: int
    max_len: float
    margin: float
    iters: int
    residual: float
    error_inf: float
    converged: bool


CSV_HEADER = "level,max_len,margin,iters,residual,error_inf"


def convergence_study(levels: int, kappa_value: float = -1.0) -> list[StudyRow]:
    """Solve on octagon refinements 0..levels-1 and tabulate errors.

    The problem is invariant under u -> u + c with kappa -> kappa * e^{-c},
    and for kappa = -1 the smooth reference factor is identically zero, so
    the reference for a constant kappa is -log(-kappa): error_inf is
    max|u + log(-kappa)|.
    """
    _check_count("levels", levels)
    if not (kappa_value < 0 and math.isfinite(kappa_value)):
        raise ValueError("kappa_value must be finite and < 0")
    rows = []
    m = gen_octagon_genus2()
    for level in range(levels):
        kappa = np.full(m.mesh.face_count, kappa_value)
        margin = geometry.acuteness_margin(geometry.corner_angles(
            m.mesh, kappa, m.lengths[m.mesh.face_edges]))
        result = newton_solve(m.mesh, kappa, m.lengths)
        error = float(np.max(np.abs(result.u + math.log(-kappa_value))))
        rows.append(StudyRow(level=level,
                             max_len=geometry.max_length(m.lengths),
                             margin=margin,
                             iters=result.iterations,
                             residual=result.residual_inf,
                             error_inf=error,
                             converged=result.converged))
        if level + 1 < levels:
            m = refine_midpoint(m)
    return rows


def rows_to_csv(rows: list[StudyRow]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(f"{r.level},{r.max_len:.17g},{r.margin:.17g},"
                     f"{r.iters},{r.residual:.17g},{r.error_inf:.17g}")
    return "\n".join(lines) + "\n"
