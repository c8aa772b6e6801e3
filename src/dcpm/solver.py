"""Solvers for K(u) = 0: damped Newton iteration and a continuation ODE.

The Newton step solves (D - Delta_eta) d = -K with a sparse LU
factorization of the CSC Jacobian (``splu``, COLAMD ordering).  The system
is positive definite near acute configurations and nonsingular in general,
so no gauge fixing is needed.  Every solve is checked twice: d must be a
descent direction for the line search (rhs . d > 0, which holds whenever the
matrix is positive definite), and the recomputed residual |J d - rhs| must
be small relative to |rhs|.  A step that fails the first check falls back
to a gradient step; the step itself uses feasibility-aware backtracking.
The continuation solver integrates u'(t) = (Delta_eta(u) - D(u))^{-1} K(u0)
with classical RK4, which follows the path K(u(t)) = (1-t) K(u0).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .geometry import (InfeasibleFaceError, curvature_from_angles,
                       discrete_curvature, scale_lengths)
from .jacobian import CotangentSingularityError, JacobianParts, assemble_jacobian
from .mesh import SurfaceMesh, validate_topology

# Steps may pass through non-acute configurations, but not near-degenerate
# ones: reject a trial point once the acuteness margin drops below -pi/4.
MIN_MARGIN = -np.pi / 4

LINEAR_RESIDUAL_RTOL = 1e-10


class SolverInputError(Exception):
    """Inputs fail the solver's preconditions (topology, signs, feasibility)."""


class LinearSolveError(Exception):
    """The Newton system could not be solved."""


class NotPositiveDefiniteError(LinearSolveError):
    """The Jacobian is singular, or its solution is not a descent direction.

    Raised when the sparse LU factor is exactly singular or when the solve
    gives d with rhs . d <= 0; a positive definite Jacobian never does
    either, so this signals that positive definiteness was lost.
    """


@dataclass
class SolveConfig:
    tolerance: float = 1e-10
    max_iterations: int = 100
    initial_u: np.ndarray | None = None
    backtrack_shrink: float = 0.5
    backtrack_slope: float = 1e-4
    max_backtracks: int = 40

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValueError("tolerance must be > 0")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass
class ContinuationConfig:
    steps: int = 1000
    newton_polish: bool = True
    checkpoints: tuple[float, ...] = (0.25, 0.5, 0.75)

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")


@dataclass
class SolveResult:
    u: np.ndarray
    residual_inf: float
    iterations: int
    converged: bool
    # (iteration, residual_inf, step length, acuteness margin) per accepted step
    step_log: list[tuple[int, float, float, float]] = field(default_factory=list)
    used_gradient_fallback: bool = False
    # continuation extras
    linearity_defect: float | None = None
    checkpoint_log: list[tuple[float, float, float]] = field(default_factory=list)


def solve_linear_spd(parts: JacobianParts, rhs: np.ndarray) -> np.ndarray:
    """Solve (D - Delta_eta) d = rhs by sparse LU of the CSC Jacobian.

    LU factors indefinite matrices too, so positive definiteness is tested
    through what the line search needs: for nonzero ``rhs``, d must satisfy
    rhs . d > 0 (with rhs = -K, d is a descent direction for |K|).  Raises
    :class:`NotPositiveDefiniteError` when the factor is exactly singular or
    that test fails, and :class:`LinearSolveError` when the recomputed
    residual max|J d - rhs| exceeds ``LINEAR_RESIDUAL_RTOL * max|rhs|``.
    """
    from scipy.sparse.linalg import splu

    J = parts.matrix()
    try:
        d = splu(J).solve(rhs)
    except RuntimeError as exc:
        raise NotPositiveDefiniteError(str(exc)) from None
    rhs_norm = float(np.max(np.abs(rhs)))
    if rhs_norm == 0.0:
        return d
    slope = float(rhs @ d)
    if not slope > 0.0:
        raise NotPositiveDefiniteError(
            f"solution is not a descent direction (rhs . d = {slope:.3e})")
    resid = float(np.max(np.abs(J @ d - rhs)))
    if not resid <= LINEAR_RESIDUAL_RTOL * rhs_norm:
        raise LinearSolveError(
            f"linear solve residual {resid:.3e} exceeds "
            f"{LINEAR_RESIDUAL_RTOL:.0e} * |rhs|")
    return d


def _check_inputs(mesh: SurfaceMesh, kappa: np.ndarray) -> None:
    report = validate_topology(mesh)
    if report.violations:
        raise SolverInputError("invalid mesh: " + "; ".join(report.violations))
    if report.genus < 2:
        raise SolverInputError(
            f"genus >= 2 required (mesh has genus {report.genus})")
    if not (np.asarray(kappa) < 0).all():
        raise SolverInputError("all face curvatures must be strictly negative")


def _curvature_and_margin(mesh, kappa, u, lengths) -> tuple[np.ndarray, float]:
    """K(u) and the acuteness margin at u from one angle evaluation."""
    angles = geometry.corner_angles(mesh, kappa, scale_lengths(mesh, u, lengths))
    return curvature_from_angles(mesh, angles), float(np.pi / 2 - angles.max())


def newton_solve(mesh: SurfaceMesh, kappa: np.ndarray, lengths: np.ndarray,
                 cfg: SolveConfig | None = None) -> SolveResult:
    """Find the conformal factor with K(u) = 0 by damped Newton iteration.

    A step is accepted when every face stays feasible, the acuteness margin
    stays above ``MIN_MARGIN`` and the 2-norm of K decreases sufficiently.
    When the Newton direction is unavailable (singular factor, no descent,
    or a cotangent singularity) the iteration falls back to a gradient step
    (-K is a descent direction of the locally convex energy).
    """
    cfg = cfg or SolveConfig()
    _check_inputs(mesh, kappa)

    u = (np.zeros(mesh.vertex_count) if cfg.initial_u is None
         else np.array(cfg.initial_u, dtype=float))
    try:
        K = discrete_curvature(mesh, kappa, u, lengths)
    except InfeasibleFaceError as exc:
        raise SolverInputError(f"initial point infeasible: {exc}") from None

    result = SolveResult(u=u, residual_inf=float(np.max(np.abs(K))),
                         iterations=0, converged=False)
    for it in range(cfg.max_iterations):
        res_inf = float(np.max(np.abs(K)))
        if res_inf <= cfg.tolerance:
            break

        try:
            parts = assemble_jacobian(mesh, kappa, u, lengths)
            d = solve_linear_spd(parts, -K)
        except (NotPositiveDefiniteError, CotangentSingularityError):
            d = -K
            result.used_gradient_fallback = True
        except LinearSolveError as exc:
            raise LinearSolveError(f"iteration {it}: {exc}") from None

        norm2 = float(np.linalg.norm(K))
        step = 1.0
        accepted = False
        for _ in range(cfg.max_backtracks):
            u_trial = u + step * d
            try:
                K_trial, margin = _curvature_and_margin(mesh, kappa, u_trial, lengths)
            except InfeasibleFaceError:
                step *= cfg.backtrack_shrink
                continue
            if margin > MIN_MARGIN and (
                    float(np.linalg.norm(K_trial))
                    <= (1.0 - cfg.backtrack_slope * step) * norm2):
                accepted = True
                break
            step *= cfg.backtrack_shrink
        if not accepted:
            result.iterations = it
            break

        u, K = u_trial, K_trial
        result.step_log.append((it + 1, float(np.max(np.abs(K))), step, margin))
        result.iterations = it + 1

    result.u = u
    result.residual_inf = float(np.max(np.abs(K)))
    result.converged = result.residual_inf <= cfg.tolerance
    return result


def continuation_solve(mesh: SurfaceMesh, kappa: np.ndarray,
                       lengths: np.ndarray, u0: np.ndarray,
                       cfg: ContinuationConfig | None = None) -> SolveResult:
    """Integrate u'(t) = (Delta_eta(u) - D(u))^{-1} K(u0) from t=0 to 1.

    Classical fixed-step RK4; the exact solution follows
    K(u(t)) = (1-t) K(u0), and the largest checkpoint deviation from that
    line is recorded as ``linearity_defect``.  Optionally Newton-polishes
    the endpoint.
    """
    cfg = cfg or ContinuationConfig()
    _check_inputs(mesh, kappa)
    u = np.array(u0, dtype=float)
    try:
        K0 = discrete_curvature(mesh, kappa, u, lengths)
    except InfeasibleFaceError as exc:
        raise SolverInputError(f"initial point infeasible: {exc}") from None

    def rhs(u_cur: np.ndarray, t: float) -> np.ndarray:
        try:
            parts = assemble_jacobian(mesh, kappa, u_cur, lengths)
        except InfeasibleFaceError as exc:
            raise SolverInputError(
                f"infeasible configuration at t = {t:.6g}: {exc}") from None
        # (Delta - D)^{-1} K0 = -(D - Delta)^{-1} K0
        return -solve_linear_spd(parts, K0)

    check_steps = {int(round(c * cfg.steps)): c for c in cfg.checkpoints}
    result = SolveResult(u=u, residual_inf=float(np.max(np.abs(K0))),
                         iterations=0, converged=False)
    h = 1.0 / cfg.steps
    for n in range(cfg.steps):
        t = n * h
        k1 = rhs(u, t)
        k2 = rhs(u + 0.5 * h * k1, t + 0.5 * h)
        k3 = rhs(u + 0.5 * h * k2, t + 0.5 * h)
        k4 = rhs(u + h * k3, t + h)
        u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if n + 1 in check_steps:
            c = check_steps[n + 1]
            Kt = discrete_curvature(mesh, kappa, u, lengths)
            defect = float(np.max(np.abs(Kt - (1.0 - c) * K0)))
            result.checkpoint_log.append((c, float(np.max(np.abs(Kt))), defect))

    result.linearity_defect = (max(d for _, _, d in result.checkpoint_log)
                               if result.checkpoint_log else None)
    result.iterations = cfg.steps

    if cfg.newton_polish:
        polish = newton_solve(mesh, kappa, lengths, SolveConfig(initial_u=u))
        result.u = polish.u
        result.residual_inf = polish.residual_inf
        result.converged = polish.converged
    else:
        K = discrete_curvature(mesh, kappa, u, lengths)
        result.u = u
        result.residual_inf = float(np.max(np.abs(K)))
        result.converged = False
    return result


def energy_along_path(mesh: SurfaceMesh, kappa: np.ndarray,
                      lengths: np.ndarray, u_start: np.ndarray,
                      u_end: np.ndarray, quadrature_points: int = 32) -> float:
    """Line integral of sum_i K_i du_i along the straight segment.

    Gauss-Legendre quadrature; a path-independence and convexity diagnostic
    for the underlying energy (its gradient is K, its Hessian symmetric).
    """
    nodes, weights = np.polynomial.legendre.leggauss(quadrature_points)
    delta = np.asarray(u_end, dtype=float) - np.asarray(u_start, dtype=float)
    total = 0.0
    for xi, w in zip(nodes, weights):
        t = 0.5 * (xi + 1.0)
        K = discrete_curvature(mesh, kappa, u_start + t * delta, lengths)
        total += 0.5 * w * float(K @ delta)
    return total
