"""Exact derivative of the discrete curvature map: dK/du = D - Delta_eta.

Edge weights and diagonal are assembled per face from half-angle cotangents
and the lambda factors; the result is the true Jacobian of
:func:`dcpm.geometry.discrete_curvature` (checked by finite differences in
the test suite).  Assembly reads the scaled lengths and corner angles that
the caller already evaluated at u; it computes no angle itself.  The
Jacobian has one representation, the CSC matrix that
:func:`assemble_jacobian` returns: a copy, with fresh values, of the pattern
matrix of the per-mesh :class:`JacobianPlan`, built once, cached on the mesh.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .mesh import SurfaceMesh

if TYPE_CHECKING:
    import scipy.sparse as sp

COT_SINGULARITY_TOL = 1e-12


class CotangentSingularityError(Exception):
    """A half-angle combination reached 0 or pi; face nearly degenerate."""


def tilde_theta(angles: np.ndarray) -> np.ndarray:
    """Half-angle combinations: slot s gets (pi + theta_s - theta_j - theta_k)/2."""
    angles = np.asarray(angles, dtype=float)
    total = (angles[..., 0] + angles[..., 1] + angles[..., 2])[..., None]
    return 0.5 * (np.pi + 2.0 * angles - total)


def lambda_factor(kappa, scaled_length):
    """kappa^2 l^2 / (kappa^2 l^2 + 4); equals tanh^2(H/2) of the model length."""
    t = (np.asarray(kappa, dtype=float) * np.asarray(scaled_length, dtype=float)) ** 2
    return t / (t + 4.0)


@dataclass(frozen=True, eq=False)
class JacobianPlan:
    """Sparsity pattern of D - Delta_eta on one mesh, fixed by its edges.

    ``pattern`` is the CSC matrix of the pattern, with zero values: rows
    sorted within each column, every diagonal entry present, loop edges
    dropped as in :func:`dcpm.calculus.laplacian_matrix`.  The numeric
    values are laid out as ``[-w, -w, +w, +w, diag]``, with ``w`` the
    weights of the non-loop edges (mask ``keep``): the two off-diagonal
    entries of each edge, its two endpoint diagonals, then D.  ``slot``
    sends each value to its nnz position, and ``diag_index`` names the
    vertex that each (face slot, edge end) of :func:`jacobian_weights` adds
    to.  Both off-diagonal entries of an edge list its endpoints in the same
    (low, high) order, so parallel edges sum in edge order on both sides and
    the matrix is exactly symmetric.
    """

    keep: np.ndarray
    slot: np.ndarray
    diag_index: np.ndarray
    pattern: sp.csc_matrix

    @property
    def nnz(self) -> int:
        return len(self.pattern.indices)


def jacobian_plan(mesh: SurfaceMesh) -> JacobianPlan:
    """The mesh's :class:`JacobianPlan`, built once and cached on the mesh."""
    plan = getattr(mesh, "_jacobian_plan", None)
    if plan is None:
        import scipy.sparse as sp

        n = mesh.vertex_count
        keep = mesh.edges[:, 0] != mesh.edges[:, 1]
        lo = mesh.edges[keep].min(axis=1)
        hi = mesh.edges[keep].max(axis=1)
        vertices = np.arange(n)
        rows = np.concatenate([lo, hi, lo, hi, vertices])
        cols = np.concatenate([hi, lo, lo, hi, vertices])
        keys, slot = np.unique(cols * n + rows, return_inverse=True)
        indptr = np.searchsorted(keys, vertices * n)
        pattern = sp.csc_matrix((np.zeros(len(keys)), (keys % n).astype(np.int32),
                                 np.append(indptr, len(keys)).astype(np.int32)),
                                shape=(n, n))
        plan = JacobianPlan(
            keep=keep, slot=slot, pattern=pattern,
            diag_index=mesh.edges[mesh.face_edges.ravel()].T.ravel().astype(np.int32))
        for a in (keep, slot, plan.diag_index,
                  pattern.indices, pattern.indptr, pattern.data):
            a.flags.writeable = False
        mesh._jacobian_plan = plan
    return plan


def jacobian_weights(mesh: SurfaceMesh, kappa: np.ndarray, scaled: np.ndarray,
                     angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Edge weights eta and diagonal D at u, from its scaled lengths and angles.

    ``scaled`` is ``geometry.scale_lengths(mesh, u, lengths)`` and ``angles``
    is ``geometry.corner_angles(mesh, kappa, scaled)``.  Per face and edge
    slot s (opposite corner s+2), the face contributes
    cot(tilde_theta)*(1-lambda)/2 to the edge weight and cot(tilde_theta)*lambda
    to the diagonal at each endpoint of the edge.  Accumulation runs in
    ascending face id order, so assembly is deterministic.  For a loop edge
    both endpoint contributions land on the same diagonal entry, which is the
    correct specialization of the derivative.  ``eta`` is per edge (summed
    over the two incident faces) and ``diag`` per vertex;
    ``calculus.laplacian_matrix(mesh, eta)`` is Delta_eta.
    """
    tilde = tilde_theta(angles)
    singular = (tilde < COT_SINGULARITY_TOL) | (np.pi - tilde < COT_SINGULARITY_TOL)
    if singular.any():
        f = int(np.nonzero(singular.any(axis=1))[0][0])
        raise CotangentSingularityError(
            f"half angle at face {mesh.face_ids[f]} within "
            f"{COT_SINGULARITY_TOL} of 0 or pi")

    lam = lambda_factor(kappa[:, None], scaled[mesh.face_edges])
    # cotangent opposite to edge slot s is at corner slot s+2
    cot_opp = (np.cos(tilde) / np.sin(tilde))[:, [2, 0, 1]]

    eta = np.bincount(mesh.face_edges.ravel(),
                      weights=(0.5 * cot_opp * (1.0 - lam)).ravel(),
                      minlength=mesh.edge_count)

    dcontrib = (cot_opp * lam).ravel()
    diag = np.bincount(jacobian_plan(mesh).diag_index,
                       weights=np.concatenate((dcontrib, dcontrib)),
                       minlength=mesh.vertex_count)
    return eta, diag


def assemble_jacobian(mesh: SurfaceMesh, kappa: np.ndarray, scaled: np.ndarray,
                      angles: np.ndarray) -> sp.csc_matrix:
    """Sparse Jacobian D - Delta_eta at u, filled into the mesh's plan.

    The arguments are those of :func:`jacobian_weights`, which gives the
    values; the result shares its index arrays with ``plan.pattern``.
    """
    eta, diag = jacobian_weights(mesh, kappa, scaled, angles)
    plan = jacobian_plan(mesh)
    w = eta[plan.keep]
    values = np.concatenate([-w, -w, w, w, diag])
    J = copy.copy(plan.pattern)
    J.data = np.bincount(plan.slot, weights=values, minlength=plan.nnz)
    return J
