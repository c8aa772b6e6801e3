"""Exact derivative of the discrete curvature map: dK/du = D - Delta_eta.

Edge weights and diagonal are assembled per face from half-angle cotangents
and the lambda factors; the result is the true Jacobian of
:func:`dcpm.geometry.discrete_curvature` (checked by finite differences in
the test suite).  Assembly reads the slot lengths and corner angles of the
point that the caller evaluated at u; it computes no angle itself.  The
Jacobian has one representation, the CSC matrix of :func:`operator_matrix`:
a copy, with fresh values, of the pattern matrix of a :class:`JacobianPlan`.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .geometry import Point
from .mesh import SurfaceMesh

if TYPE_CHECKING:
    import scipy.sparse as sp

COT_SINGULARITY_TOL = 1e-12


class LinearSolveError(Exception):
    """The Newton system could not be solved."""


class NotPositiveDefiniteError(LinearSolveError):
    """No Newton direction at this point: a half angle within
    ``COT_SINGULARITY_TOL`` of 0 or pi, an exactly singular LU factor, or a
    solution d with rhs . d <= 0, none of which a positive definite J gives."""


def tilde_theta(angles: np.ndarray) -> np.ndarray:
    """Half-angle combinations: slot s gets (pi + theta_s - theta_j - theta_k)/2."""
    total = (angles[..., 0] + angles[..., 1] + angles[..., 2])[..., None]
    return 0.5 * (np.pi + 2.0 * angles - total)


def lambda_factor(kappa, scaled_length):
    """kappa^2 l^2 / (kappa^2 l^2 + 4); equals tanh^2(H/2) of the model length."""
    t = (kappa * scaled_length) ** 2
    return t / (t + 4.0)


@dataclass(frozen=True, eq=False)
class JacobianPlan:
    """Sparsity pattern of D - Delta_eta on one mesh or graph, fixed by its edges.

    ``pattern`` is the CSC matrix of the pattern, with zero values: rows
    sorted within each column, every diagonal entry present, loop edges
    dropped, since a loop's two ends cancel in Delta_eta.  The numeric
    values are laid out as ``[-w, -w, +w, +w, diag]``, with ``w`` the
    weights of the non-loop edges (mask ``keep``): the two off-diagonal
    entries of each edge, its two endpoint diagonals, then D.  ``slot``
    sends each value to its nnz position.  Both off-diagonal entries of an
    edge list its endpoints in the same (low, high) order, so parallel edges
    sum in edge order on both sides and the matrix is exactly symmetric.
    """

    keep: np.ndarray
    slot: np.ndarray
    pattern: sp.csc_matrix


def jacobian_plan(graph) -> JacobianPlan:
    """The :class:`JacobianPlan` of a mesh or graph, built once and cached on it."""
    plan = getattr(graph, "_jacobian_plan", None)
    if plan is None:
        import scipy.sparse as sp

        n = graph.vertex_count
        keep = graph.edges[:, 0] != graph.edges[:, 1]
        lo = graph.edges[keep].min(axis=1)
        hi = graph.edges[keep].max(axis=1)
        vertices = np.arange(n)
        rows = np.concatenate([lo, hi, lo, hi, vertices])
        cols = np.concatenate([hi, lo, lo, hi, vertices])
        keys, slot = np.unique(cols * n + rows, return_inverse=True)
        indptr = np.searchsorted(keys, vertices * n)
        pattern = sp.csc_matrix((np.zeros(len(keys)), (keys % n).astype(np.int32),
                                 np.append(indptr, len(keys)).astype(np.int32)),
                                shape=(n, n))
        for a in (keep, slot, pattern.indices, pattern.indptr, pattern.data):
            a.flags.writeable = False
        plan = graph._jacobian_plan = JacobianPlan(keep, slot, pattern)
    return plan


def jacobian_weights(mesh: SurfaceMesh, kappa: np.ndarray,
                     point: Point) -> tuple[np.ndarray, np.ndarray]:
    """Edge weights eta and diagonal D from the slot lengths and angles at u.

    ``point`` is ``geometry.evaluate_point(mesh, kappa, u, lengths)``.  Per
    face and edge slot s (opposite corner s+2), the face contributes
    cot(tilde_theta)*(1-lambda)/2 to the edge weight and cot(tilde_theta)*lambda
    to the diagonal at each endpoint of the edge.  Sums run in the order of
    ``mesh.edge_slots`` and ``mesh.slot_ends``, so assembly is deterministic.
    For a loop edge both endpoint contributions land on the same diagonal
    entry, which is the correct specialization of the derivative.  ``eta``
    is per edge (summed over the two incident faces) and ``diag`` per
    vertex; ``operator_matrix(mesh, eta, 0 * diag)`` is -Delta_eta.
    """
    tilde = tilde_theta(point.angles)
    singular = (tilde < COT_SINGULARITY_TOL) | (np.pi - tilde < COT_SINGULARITY_TOL)
    if singular.any():
        f = int(np.nonzero(singular.any(axis=1))[0][0])
        raise NotPositiveDefiniteError(
            f"half angle at face {mesh.face_ids[f]} within "
            f"{COT_SINGULARITY_TOL} of 0 or pi")

    lam = lambda_factor(kappa[:, None], point.slot_lengths)
    # cotangent opposite to edge slot s is at corner slot s+2
    cot_opp = (np.cos(tilde) / np.sin(tilde))[:, [2, 0, 1]]

    w = (0.5 * cot_opp * (1.0 - lam)).ravel()[mesh.edge_slots]
    eta = w[:, 0] + w[:, 1]

    dcontrib = (cot_opp * lam).ravel()
    diag = np.bincount(mesh.slot_ends.ravel(),
                       weights=np.concatenate((dcontrib, dcontrib)),
                       minlength=mesh.vertex_count)
    return eta, diag


def operator_matrix(graph, eta: np.ndarray, diag: np.ndarray) -> sp.csc_matrix:
    """Sparse D - Delta_eta on any ``graph`` with ``vertex_count`` and (E, 2)
    ``edges``, such as a mesh, from ``eta`` per edge and ``diag`` per vertex,
    filled into its plan."""
    plan = jacobian_plan(graph)
    w = eta[plan.keep]
    values = np.concatenate([-w, -w, w, w, diag])
    J = copy.copy(plan.pattern)
    J.data = np.bincount(plan.slot, weights=values, minlength=plan.pattern.nnz)
    return J


def assemble_jacobian(mesh: SurfaceMesh, kappa: np.ndarray,
                      point: Point) -> sp.csc_matrix:
    """Sparse Jacobian D - Delta_eta at u: :func:`operator_matrix` of the
    values that :func:`jacobian_weights`, with the same arguments, gives."""
    return operator_matrix(mesh, *jacobian_weights(mesh, kappa, point))
