"""Per-face geometry on triangulated surfaces with negative background curvature.

Edge lengths are rescaled by a per-vertex conformal factor u, mapped to
"model lengths" H = 2*asinh((-kappa/2)*l) and fed to the curvature -1
(hyperbolic) law of cosines; the generalized discrete curvature at a vertex
is 2*pi minus its total corner angle.
"""

from __future__ import annotations

import numpy as np

from .mesh import SurfaceMesh

TWO_PI = 2.0 * np.pi

# A face is infeasible when max(H) >= sum(other H) - FEASIBILITY_RTOL*max(H): the
# half-angle form divides by sinh(s - H_i), kept far above its rounding error.
FEASIBILITY_RTOL = 1e-12

# A face is also infeasible when its model perimeter is not finite or exceeds
# log(float max): the sinh products of the half-angle formula would overflow.
MAX_MODEL_PERIMETER = float(np.log(np.finfo(float).max))


class InfeasibleFaceError(Exception):
    """A face's model lengths fail the triangle inequality or overflow."""

    def __init__(self, face_ids):
        self.face_ids = list(face_ids)
        super().__init__(
            "infeasible face(s) "
            + ", ".join(str(f) for f in self.face_ids[:8])
            + ("..." if len(self.face_ids) > 8 else "")
            + ": model lengths violate the triangle inequality or overflow")


def scale_lengths(mesh: SurfaceMesh, u: np.ndarray,
                  lengths: np.ndarray) -> np.ndarray:
    """Conformally rescaled lengths (u*l)_ab = exp((u_a+u_b)/2) * l_ab.

    A loop edge (a == b) picks up exp(u_a), the consistent specialization.
    """
    a, b = mesh.edges[:, 0], mesh.edges[:, 1]
    with np.errstate(over="ignore"):  # length inf, which infeasible_slots flags
        return np.exp(0.5 * (u[a] + u[b])) * lengths


def constant_curvature_edge_length(kappa, length):
    """Edge length in the curvature-kappa model: (2/-kappa)*asinh((-kappa/2)*l)."""
    kappa = np.asarray(kappa, dtype=float)
    return (2.0 / -kappa) * np.arcsinh(0.5 * (-kappa) * np.asarray(length, dtype=float))


def model_length(kappa, length):
    """Curvature -1 length H = 2*asinh((-kappa/2)*l) used for all angles."""
    kappa = np.asarray(kappa, dtype=float)
    with np.errstate(over="ignore"):  # H = inf, which infeasible_slots flags
        return 2.0 * np.arcsinh(0.5 * (-kappa) * np.asarray(length, dtype=float))


def max_length(lengths: np.ndarray) -> float:
    """Infinity norm of the length vector."""
    return float(np.max(np.abs(lengths)))


def infeasible_slots(H: np.ndarray) -> np.ndarray:
    """Boolean mask of rows of (..., 3) model lengths failing feasibility."""
    # column by column: the same sum, in the same order, as H.sum(axis=-1)
    s = H[..., 0] + H[..., 1] + H[..., 2]
    m = np.maximum(np.maximum(H[..., 0], H[..., 1]), H[..., 2])
    with np.errstate(invalid="ignore"):  # inf - inf on an overflowed face
        return (m >= (s - m) - FEASIBILITY_RTOL * m) | ~(s <= MAX_MODEL_PERIMETER)


def triangle_angles(H: np.ndarray) -> np.ndarray:
    """Angles of hyperbolic triangles from (..., 3) side lengths.

    The angle in slot s lies between sides s and s-1, opposite side s+1
    (matching the corner convention of :class:`SurfaceMesh`).  Raises
    :class:`InfeasibleFaceError` with row indices on infeasible rows.
    """
    H = np.asarray(H, dtype=float)
    bad = np.atleast_1d(infeasible_slots(H))
    if bad.any():
        raise InfeasibleFaceError(np.nonzero(bad)[0])
    # half-angle (tangent) form of the hyperbolic law of cosines; unlike the
    # cosine form it has no catastrophic cancellation for small triangles
    a = H[..., [1, 2, 0]]        # opposite side
    b, c = H, H[..., [2, 0, 1]]  # adjacent sides
    sa = 0.5 * (-a + b + c)
    sb = 0.5 * (a - b + c)
    sc = 0.5 * (a + b - c)
    s = 0.5 * (a + b + c)
    sb, sc, s, sa = np.sinh(sb), np.sinh(sc), np.sinh(s), np.sinh(sa)
    num, den = sb * sc, s * sa
    # the products underflow on tiny triangles, where the ratios do not
    tiny = np.minimum(num, den) < np.finfo(float).tiny
    if tiny.any():
        num[tiny] = (sb[tiny] / s[tiny]) * (sc[tiny] / sa[tiny])
        den[tiny] = 1.0
    return 2.0 * np.arctan(np.sqrt(np.maximum(num / den, 0.0)))


def corner_angles(mesh: SurfaceMesh, kappa: np.ndarray,
                  lengths: np.ndarray) -> np.ndarray:
    """(F, 3) inner angles; slot s is the angle at corner s of each face.

    The one angle evaluation: K, the margin and the Jacobian read its output.
    """
    H = model_length(kappa[:, None], lengths[mesh.face_edges])
    try:
        return triangle_angles(H)
    except InfeasibleFaceError as exc:
        raise InfeasibleFaceError(
            [int(mesh.face_ids[f]) for f in exc.face_ids]) from None


def curvature_from_angles(mesh: SurfaceMesh, angles: np.ndarray) -> np.ndarray:
    """K_i = 2*pi - sum of the (F, 3) corner angles at vertex i.

    Summation runs in ascending face id order, so results are deterministic.
    """
    K = np.full(mesh.vertex_count, TWO_PI)
    np.subtract.at(K, mesh.face_corners.ravel(), angles.ravel())
    return K


def evaluate_point(mesh: SurfaceMesh, kappa: np.ndarray, u: np.ndarray,
                   lengths: np.ndarray, curvature: bool = True):
    """(u, scaled lengths, corner angles, K): one angle evaluation at u; K is
    None when not ``curvature``, at a point that only gives a Jacobian."""
    scaled = scale_lengths(mesh, u, lengths)
    angles = corner_angles(mesh, kappa, scaled)
    return u, scaled, angles, curvature_from_angles(mesh, angles) if curvature else None


def discrete_curvature(mesh: SurfaceMesh, kappa: np.ndarray, u: np.ndarray,
                       lengths: np.ndarray) -> np.ndarray:
    """Generalized discrete curvature K_i = 2*pi - sum of corner angles at i."""
    return evaluate_point(mesh, kappa, u, lengths)[3]


def acuteness_margin(angles: np.ndarray) -> float:
    """min over corners of (pi/2 - angle); the mesh is eps-acute iff >= eps."""
    return float(np.pi / 2 - angles.max())


def gauss_bonnet_residual(mesh: SurfaceMesh, angles: np.ndarray) -> float:
    """Defect of sum(K) = 2*pi*chi + sum over faces of (pi - angle sum).

    Zero up to roundoff on every feasible configuration.
    """
    K = curvature_from_angles(mesh, angles)
    face_defect = np.pi - angles.sum(axis=1)
    return float(K.sum() - face_defect.sum() - TWO_PI * mesh.euler_characteristic)
