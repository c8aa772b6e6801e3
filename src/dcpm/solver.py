"""Solvers for K(u) = 0: damped Newton iteration and a continuation ODE.

The Newton step solves (D - Delta_eta) d = -K, with the CSC Jacobian of
:func:`dcpm.jacobian.assemble_jacobian`.  Each solve call factors its first
Jacobian by sparse LU (``splu`` with a symmetric minimum-degree ordering;
:func:`solve_linear_spd` returns the factor with the direction) and holds
that factor, in the call's own ``_HeldFactor``: every later system is solved
by conjugate gradients preconditioned with it, since the Jacobian moves
little between steps.  CG that does not converge within
``CG_MAX_ITERATIONS`` or meets a direction of non-positive curvature drops
the held factor, and the system is factored afresh, which is the direct
path.  The system is positive definite near acute configurations, and no
gauge is fixed, though near kappa = 0 it is nearly singular: as kappa -> 0
the diagonal D vanishes and J tends to -Delta_eta, whose kernel holds the
constants, so ``solve --kappa const:-1e-3`` on the level-1 octagon fails the
residual check below at iteration 0 (linear residual 5.066e-10).  The
Gauss-Bonnet gauge start of ROADMAP.md item 3 would mend it.  Every direction,
from CG or LU, is checked twice: d must be a descent direction for the
line search (rhs . d > 0, which holds whenever the matrix is positive
definite), and the recomputed residual |J d - rhs| must be small relative
to |rhs|.  A step that fails the first check falls back to a gradient
step.  The backtracking is Armijo-style on |K|: a trial step t is accepted
once every face is feasible and |K(u + t d)|_2 <= (1 - BACKTRACK_SLOPE * t)
|K(u)|_2, and each rejection multiplies t by BACKTRACK_SHRINK, at most
MAX_BACKTRACKS times per iteration.  The angles of each trial point give
its K and, once accepted, its margin and the next Jacobian.
The continuation solver integrates u'(t) = (Delta_eta(u) - D(u))^{-1} K(u0)
with classical RK4, which follows the path K(u(t)) = (1-t) K(u0).  It too
carries evaluated points and a held factor, and the Newton polish starts
from its last point and factor.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .geometry import InfeasibleFaceError, Point, acuteness_margin, evaluate_point
from .jacobian import LinearSolveError, NotPositiveDefiniteError, assemble_jacobian
from .mesh import SurfaceMesh, validate_topology

LINEAR_RESIDUAL_RTOL = 1e-10

# CG on a held factor stops at max|r| <= CG_RTOL * max|rhs|, well inside the
# residual check.  After CG_MAX_ITERATIONS steps the factor counts as aged and
# the system is factored afresh; the first system after the factor of a
# Newton solve takes 13-14 steps on octagon levels 5-7, the later ones 10-12.
CG_RTOL = 1e-12
CG_MAX_ITERATIONS = 16

BACKTRACK_SHRINK = 0.5
BACKTRACK_SLOPE = 1e-4
MAX_BACKTRACKS = 40

# continuation checkpoints: the first step at or past each fraction of the path
CHECKPOINTS = (0.25, 0.5, 0.75)


class SolverInputError(Exception):
    """Inputs fail the solver's preconditions (topology, shapes, signs)."""


def _check_count(name: str, value, minimum: int = 1) -> None:
    """Raise ValueError unless ``value`` is an integer (NumPy's too) >= ``minimum``."""
    if not (isinstance(value, numbers.Integral) and value >= minimum):
        raise ValueError(f"{name} must be an integer >= {minimum}")


@dataclass
class SolveConfig:
    tolerance: float = 1e-10
    max_iterations: int = 100
    initial_u: np.ndarray | None = None

    def __post_init__(self):
        if not 0 < self.tolerance < np.inf:
            raise ValueError("tolerance must be finite and > 0")
        _check_count("max_iterations", self.max_iterations)


@dataclass
class ContinuationConfig:
    steps: int = 1000
    newton_polish: bool = True

    def __post_init__(self):
        _check_count("steps", self.steps)


@dataclass
class SolveResult:
    u: np.ndarray
    residual_inf: float
    iterations: int
    converged: bool
    angles: np.ndarray  # (F, 3) corner angles at u
    # (iteration, residual_inf, step length, acuteness margin) per accepted step
    step_log: list[tuple[int, float, float, float]] = field(default_factory=list)
    used_gradient_fallback: bool = False
    # continuation only
    linearity_defect: float | None = None
    checkpoint_log: list[tuple[float, float, float]] = field(default_factory=list)


def _checked_direction(J, rhs: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Return d, a solution of J d = rhs, once it passes both checks.

    LU factors indefinite matrices too, and CG may finish on one, so
    positive definiteness is tested through what the line search needs: for
    nonzero ``rhs``, d must satisfy rhs . d > 0 (with rhs = -K, d is a
    descent direction for |K|), or :class:`NotPositiveDefiniteError` is
    raised.  :class:`LinearSolveError`
    is raised when the recomputed residual max|J d - rhs| exceeds
    ``LINEAR_RESIDUAL_RTOL * max|rhs|``.
    """
    rhs_norm = float(np.abs(rhs).max())
    if rhs_norm == 0.0:
        return d
    slope = float(rhs.dot(d))
    if not slope > 0.0:
        raise NotPositiveDefiniteError(
            f"solution is not a descent direction (rhs . d = {slope:.3e})")
    resid = float(np.abs(J @ d - rhs).max())
    if not resid <= LINEAR_RESIDUAL_RTOL * rhs_norm:
        raise LinearSolveError(
            f"linear solve residual {resid:.3e} exceeds "
            f"{LINEAR_RESIDUAL_RTOL:.0e} * |rhs|")
    return d


def solve_linear_spd(J, rhs: np.ndarray):
    """Solve J d = rhs, J = D - Delta_eta in CSC form, by a fresh sparse LU.

    Returns ``(d, lu)``: the checked solution and the ``SuperLU`` factor,
    which orders rows and columns alike, by minimum degree on J + J^T.
    Raises :class:`NotPositiveDefiniteError` when the factor is exactly
    singular, and otherwise whatever :func:`_checked_direction` raises.
    """
    from scipy.sparse.linalg import splu

    try:
        lu = splu(J, permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise NotPositiveDefiniteError(str(exc)) from None
    return _checked_direction(J, rhs, lu.solve(rhs)), lu


def _preconditioned_cg(J, rhs: np.ndarray, factor,
                       guess: np.ndarray | None = None) -> np.ndarray | None:
    """Solve J d = rhs by CG preconditioned with an LU ``factor`` of a nearby J.

    Starts from ``guess`` (or 0) and stops at max|r| <= ``CG_RTOL *
    max|rhs|``.  Returns None after ``CG_MAX_ITERATIONS`` steps, or at a
    search direction p with p . J p <= 0 or a preconditioned residual with
    r . z <= 0, neither of which a positive definite J and factor allow.
    """
    tol = CG_RTOL * float(np.abs(rhs).max())
    if guess is None:
        d, r = np.zeros_like(rhs), rhs
    else:
        d, r = guess, rhs - J @ guess
    p, rz = np.zeros_like(rhs), 1.0
    for _ in range(CG_MAX_ITERATIONS):
        if float(np.abs(r).max()) <= tol:
            return d
        z = factor.solve(r)
        rz, rz_old = float(r.dot(z)), rz
        p = z + (rz / rz_old) * p
        Jp = J @ p
        curvature = float(p.dot(Jp))
        if not (rz > 0.0 and curvature > 0.0):
            return None
        alpha = rz / curvature
        d = d + alpha * p
        r = r - alpha * Jp
    return d if float(np.abs(r).max()) <= tol else None


class _HeldFactor:
    """Solves the linear systems of one solve call, holding its last LU.

    The first system, and any that CG on the held factor cannot finish, is
    solved by :func:`solve_linear_spd`, whose factor is held from then on;
    every other one by :func:`_preconditioned_cg`, from the caller's
    ``guess`` of the solution if it has one.  The factor depends on u, so it
    is never kept past the call.
    """

    def __init__(self):
        self.factor = None

    def solve(self, J, rhs: np.ndarray,
              guess: np.ndarray | None = None) -> np.ndarray:
        if self.factor is not None:
            d = _preconditioned_cg(J, rhs, self.factor, guess)
            if d is not None:
                return _checked_direction(J, rhs, d)
            self.factor = None
        d, self.factor = solve_linear_spd(J, rhs)
        return d


def validate_inputs(mesh: SurfaceMesh, kappa, lengths, u):
    """Return ``(kappa, lengths, u)`` as the float arrays the solvers use.

    Raises :class:`SolverInputError` unless the mesh is ``solver_eligible``
    (:func:`validate_topology`) and the inputs are real: ``kappa`` (F,)
    finite and negative, ``lengths`` (E,) finite and positive, ``u`` (V,)
    finite.  ``u`` is copied, float64 ``kappa`` and ``lengths`` not.
    """
    report = validate_topology(mesh)
    if not report.solver_eligible:
        raise SolverInputError(
            "invalid mesh: " + "; ".join(report.violations) if report.violations
            else f"genus >= 2 required (mesh has genus {mesh.genus})")
    try:  # a same-kind cast: complex or text input is an error, not truncated
        kappa, lengths = (np.asarray(a).astype(float, casting="same_kind", copy=False)
                          for a in (kappa, lengths))
        u = np.asarray(u).astype(float, casting="same_kind")
    except (TypeError, ValueError) as exc:
        raise SolverInputError(f"inputs must be arrays of real numbers: {exc}") from None
    for name, value, n, sign in (("kappa", kappa, mesh.face_count, -1),
                                 ("lengths", lengths, mesh.edge_count, 1),
                                 ("u", u, mesh.vertex_count, 0)):
        if value.shape != (n,):
            raise SolverInputError(f"{name} has shape {value.shape}, expected ({n},)")
        if not np.isfinite(value).all():
            raise SolverInputError(f"{name} must be finite")
        if sign and not (np.sign(value) == sign).all():
            raise SolverInputError(
                f"{name} must be strictly {'negative' if sign < 0 else 'positive'}")
    return kappa, lengths, u


def _start_point(mesh, kappa, lengths, u):
    """:func:`validate_inputs`; its kappa and lengths and the evaluated u."""
    kappa, lengths, u = validate_inputs(mesh, kappa, lengths, u)
    return kappa, lengths, evaluate_point(mesh, kappa, u, lengths,
                                          where="initial point infeasible")


def newton_solve(mesh: SurfaceMesh, kappa: np.ndarray, lengths: np.ndarray,
                 cfg: SolveConfig | None = None) -> SolveResult:
    """Find the conformal factor with K(u) = 0 by damped Newton iteration.

    A step is accepted when every face stays feasible and |K|_2 decreases
    sufficiently.  When the Newton direction is unavailable (singular
    factor, no descent, or a cotangent singularity) the iteration falls back
    to a gradient step d = -K.  The line search tests |K|_2, not the convex
    energy whose gradient is K, and along -K the norm |K|_2 decreases only
    where K . J K > 0; ROADMAP.md item 2 would make the energy the test.
    """
    cfg = cfg or SolveConfig()
    u = np.zeros(mesh.vertex_count) if cfg.initial_u is None else cfg.initial_u
    return _newton(mesh, *_start_point(mesh, kappa, lengths, u), cfg, _HeldFactor())


def _newton(mesh, kappa, lengths, point: Point, cfg: SolveConfig,
            held: _HeldFactor) -> SolveResult:
    """The iteration of :func:`newton_solve`, from an evaluated point,
    solving its systems through ``held``."""
    step_log, used_gradient_fallback = [], False
    for it in range(cfg.max_iterations):
        if float(np.abs(point.K).max()) <= cfg.tolerance:
            break

        try:
            d = held.solve(assemble_jacobian(mesh, kappa, point), -point.K)
        except NotPositiveDefiniteError:
            d = -point.K
            used_gradient_fallback = True
        except LinearSolveError as exc:
            raise LinearSolveError(f"iteration {it}: {exc}") from None

        norm2 = float(np.linalg.norm(point.K))
        step = 1.0
        for _ in range(MAX_BACKTRACKS):
            try:  # an infeasible trial point backtracks like an insufficient one
                trial = evaluate_point(mesh, kappa, point.u + step * d, lengths)
                if np.linalg.norm(trial.K) <= (1.0 - BACKTRACK_SLOPE * step) * norm2:
                    break
            except InfeasibleFaceError:
                pass
            step *= BACKTRACK_SHRINK
        else:
            break

        point = trial
        step_log.append((it + 1, float(np.abs(point.K).max()), step,
                         acuteness_margin(point.angles)))

    residual_inf = float(np.abs(point.K).max())
    return SolveResult(u=point.u, residual_inf=residual_inf, iterations=len(step_log),
                       converged=residual_inf <= cfg.tolerance, angles=point.angles,
                       step_log=step_log, used_gradient_fallback=used_gradient_fallback)


def continuation_solve(mesh: SurfaceMesh, kappa: np.ndarray,
                       lengths: np.ndarray, u0: np.ndarray,
                       cfg: ContinuationConfig | None = None) -> SolveResult:
    """Integrate u'(t) = (Delta_eta(u) - D(u))^{-1} K(u0) from t=0 to 1.

    Classical fixed-step RK4; the exact solution follows
    K(u(t)) = (1-t) K(u0).  The loop carries evaluated points: the start is
    the first stage of step 0, and each step's end the first of the next.
    The first step at or past each fraction in ``CHECKPOINTS`` logs its time
    t and its deviation from that line; the largest is ``linearity_defect``.
    The result is the Newton polish's, started from the last end point, so
    ``iterations`` counts polish steps; without ``newton_polish`` it is that
    end point, with ``iterations = 0`` and ``converged = False``.
    """
    cfg = cfg or ContinuationConfig()
    kappa, lengths, point = _start_point(mesh, kappa, lengths, u0)
    K0, held = point.K, _HeldFactor()

    def evaluate(u: np.ndarray, t: float, curvature: bool = True):
        return evaluate_point(mesh, kappa, u, lengths, curvature,
                              f"infeasible configuration at t = {t:.6g}")

    d = None  # the last solution of J d = K0, a guess for the next

    def velocity(p: Point) -> np.ndarray:  # = (Delta - D)^{-1} K0 at a point
        nonlocal d
        d = held.solve(assemble_jacobian(mesh, kappa, p), K0, d)
        return -d

    check_steps = {int(np.ceil(c * cfg.steps)) for c in CHECKPOINTS}
    checkpoint_log = []
    h = 1.0 / cfg.steps
    for n in range(cfg.steps):
        t, u = n * h, point.u
        k1 = velocity(point)  # stages 2-4 need no K
        k2 = velocity(evaluate(u + 0.5 * h * k1, t + 0.5 * h, False))
        k3 = velocity(evaluate(u + 0.5 * h * k2, t + 0.5 * h, False))
        k4 = velocity(evaluate(u + h * k3, t + h, False))
        t = (n + 1) / cfg.steps
        point = evaluate(u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), t)
        if n + 1 in check_steps:
            defect = float(np.abs(point.K - (1.0 - t) * K0).max())
            checkpoint_log.append((t, float(np.abs(point.K).max()), defect))

    if cfg.newton_polish:
        result = _newton(mesh, kappa, lengths, point, SolveConfig(), held)
    else:
        result = SolveResult(u=point.u, residual_inf=float(np.abs(point.K).max()),
                             iterations=0, converged=False, angles=point.angles)
    result.linearity_defect = max(d for _, _, d in checkpoint_log)
    result.checkpoint_log = checkpoint_log
    return result
