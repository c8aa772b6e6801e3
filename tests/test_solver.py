import numpy as np
import pytest

from dcpm.geometry import discrete_curvature
from dcpm.jacobian import assemble_jacobian
from dcpm.solver import (ContinuationConfig, InfeasibleStartError,
                         LinearSolveError, NotPositiveDefiniteError,
                         SolveConfig, SolverInputError, continuation_solve,
                         energy_along_path, newton_solve, solve_linear_spd)

from conftest import TETRA_TEXT


def kappa_const(m, value=-1.0):
    return np.full(m.mesh.face_count, value)


# -- input validation ---------------------------------------------------------

def test_rejects_low_genus():
    from dcpm.mesh import load_mesh
    mesh, lengths = load_mesh(TETRA_TEXT)
    with pytest.raises(SolverInputError, match="genus"):
        newton_solve(mesh, np.full(4, -1.0), lengths)


def test_rejects_nonnegative_kappa(octagon0):
    kappa = kappa_const(octagon0)
    kappa[3] = 0.0
    with pytest.raises(SolverInputError, match="negative"):
        newton_solve(octagon0.mesh, kappa, octagon0.lengths)


def test_rejects_infeasible_start(octagon1):
    # stretch one edge of face 0 far past the other two
    c0, c1, c2 = octagon1.mesh.face_corners[0]
    u0 = np.zeros(octagon1.mesh.vertex_count)
    u0[c0] = u0[c1] = 6.0
    u0[c2] = -6.0
    cfg = SolveConfig(initial_u=u0)
    with pytest.raises(SolverInputError, match="infeasible"):
        newton_solve(octagon1.mesh, kappa_const(octagon1), octagon1.lengths, cfg)


def test_infeasible_start_is_its_own_error(octagon1):
    c0, c1, c2 = octagon1.mesh.face_corners[0]
    u0 = np.zeros(octagon1.mesh.vertex_count)
    u0[c0] = u0[c1] = 6.0
    u0[c2] = -6.0
    with pytest.raises(InfeasibleStartError, match="initial point infeasible"):
        continuation_solve(octagon1.mesh, kappa_const(octagon1), octagon1.lengths,
                           u0, ContinuationConfig(steps=1))


def _with(**change):
    """Replace some of (kappa, lengths, u) in a valid octagon-1 input."""
    def make(m):
        inputs = {"kappa": kappa_const(m), "lengths": m.lengths.copy(),
                  "u": np.zeros(m.mesh.vertex_count)}
        inputs.update({k: f(inputs[k]) for k, f in change.items()})
        return inputs
    return make


BAD_INPUTS = {
    "u-length-3": _with(u=lambda u: u[:3]),
    "u-length-V+1": _with(u=lambda u: np.append(u, 0.0)),
    "u-nan": _with(u=lambda u: np.where(np.arange(len(u)) == 2, np.nan, u)),
    "kappa-wrong-length": _with(kappa=lambda k: k[:-1]),
    "lengths-wrong-length": _with(lengths=lambda l: l[:-1]),
    "length-nan": _with(lengths=lambda l: np.where(np.arange(len(l)) == 5, np.nan, l)),
    "lengths-negative": _with(lengths=lambda l: -l),
}


@pytest.mark.parametrize("method", ["newton", "continuation"])
@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_rejects_bad_inputs(octagon1, case, method):
    x = BAD_INPUTS[case](octagon1)
    with pytest.raises(SolverInputError) as exc:
        if method == "newton":
            newton_solve(octagon1.mesh, x["kappa"], x["lengths"],
                         SolveConfig(initial_u=x["u"]))
        else:
            continuation_solve(octagon1.mesh, x["kappa"], x["lengths"], x["u"],
                               ContinuationConfig(steps=1))
    assert not isinstance(exc.value, InfeasibleStartError)
    assert "infeasible" not in str(exc.value)


def test_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        SolveConfig(max_iterations=0)
    with pytest.raises(ValueError):
        ContinuationConfig(steps=0)


# -- linear solve -------------------------------------------------------------

def test_solve_linear_spd_roundtrip(octagon1):
    rng = np.random.default_rng(0)
    parts = assemble_jacobian(octagon1.mesh, kappa_const(octagon1),
                              np.zeros(octagon1.mesh.vertex_count),
                              octagon1.lengths)
    rhs = rng.normal(size=octagon1.mesh.vertex_count)
    d = solve_linear_spd(parts, rhs)
    np.testing.assert_allclose(parts.matrix().toarray() @ d, rhs, atol=1e-11)


def test_solve_linear_not_pd(octagon1):
    parts = assemble_jacobian(octagon1.mesh, kappa_const(octagon1),
                              np.zeros(octagon1.mesh.vertex_count),
                              octagon1.lengths)
    parts.diag = parts.diag - 100.0          # force indefiniteness
    with pytest.raises(NotPositiveDefiniteError):
        solve_linear_spd(parts, np.ones(octagon1.mesh.vertex_count))
    assert issubclass(NotPositiveDefiniteError, LinearSolveError)


# -- Newton -------------------------------------------------------------------

@pytest.mark.parametrize("level", [0, 1, 2])
def test_newton_converges_uniform_kappa(octagon_levels, level):
    m = octagon_levels[level]
    result = newton_solve(m.mesh, kappa_const(m), m.lengths)
    assert result.converged
    assert result.residual_inf <= 1e-10
    assert result.iterations <= 25
    K = discrete_curvature(m.mesh, kappa_const(m), result.u, m.lengths)
    assert np.max(np.abs(K)) <= 1e-10


def test_newton_quadratic_tail(octagon1):
    # residuals along accepted full steps should collapse fast near the root
    result = newton_solve(octagon1.mesh, kappa_const(octagon1), octagon1.lengths)
    residuals = [r for _, r, s, _ in result.step_log if s == 1.0]
    assert len(residuals) >= 2
    assert residuals[-1] <= 1e-10
    # superlinear tail, allowing for the floating point floor
    assert residuals[-1] <= max(residuals[-2] ** 1.5, 1e-13)


def test_newton_solution_respects_symmetry(octagon1):
    # the dihedral symmetry of the octagon identification permutes spoke
    # midpoints among themselves and side midpoints among themselves, so the
    # solved conformal factor is constant on each orbit
    result = newton_solve(octagon1.mesh, kappa_const(octagon1), octagon1.lengths)
    assert result.converged
    spoke_mid = result.u[2:10]
    side_mid = result.u[10:14]
    np.testing.assert_allclose(spoke_mid, spoke_mid[0], atol=1e-9)
    np.testing.assert_allclose(side_mid, side_mid[0], atol=1e-9)


def test_newton_start_independence(octagon1):
    m = octagon1
    from dcpm.models import dual_distance_kappa
    kappa = dual_distance_kappa(m.mesh, 0.15)
    rng = np.random.default_rng(5)
    solutions = []
    for _ in range(4):
        u0 = rng.uniform(-0.1, 0.1, m.mesh.vertex_count)
        result = newton_solve(m.mesh, kappa, m.lengths, SolveConfig(initial_u=u0))
        assert result.converged
        solutions.append(result.u)
    for s in solutions[1:]:
        assert np.max(np.abs(s - solutions[0])) <= 1e-8


def test_newton_step_log_margins(octagon1):
    result = newton_solve(octagon1.mesh, kappa_const(octagon1), octagon1.lengths)
    for _, _, step, margin in result.step_log:
        assert 0 < step <= 1.0
        assert margin > -np.pi / 4


def test_newton_gradient_fallback(octagon1, monkeypatch):
    # a failed Newton solve is replaced by a gradient step, d = -K
    from dcpm import solver
    m = octagon1
    kappa = kappa_const(m)
    real_solve = solver.solve_linear_spd
    calls = []

    def fail_first(parts, rhs):
        calls.append(len(calls))
        if len(calls) == 1:
            raise NotPositiveDefiniteError("forced")
        return real_solve(parts, rhs)

    monkeypatch.setattr(solver, "solve_linear_spd", fail_first)
    K0 = discrete_curvature(m.mesh, kappa, np.zeros(m.mesh.vertex_count),
                            m.lengths)
    one = newton_solve(m.mesh, kappa, m.lengths, SolveConfig(max_iterations=1))
    assert one.used_gradient_fallback
    assert one.iterations == 1
    np.testing.assert_array_equal(one.u, -one.step_log[0][2] * K0)

    calls.clear()
    result = newton_solve(m.mesh, kappa, m.lengths)
    assert result.used_gradient_fallback
    assert result.converged
    assert len(calls) > 1
    assert not newton_solve(m.mesh, kappa, m.lengths).used_gradient_fallback


def test_newton_max_iterations_respected(octagon1):
    cfg = SolveConfig(tolerance=1e-30, max_iterations=3)
    result = newton_solve(octagon1.mesh, kappa_const(octagon1),
                          octagon1.lengths, cfg)
    assert result.iterations <= 3
    assert not result.converged


# -- continuation -------------------------------------------------------------

def test_continuation_matches_newton(octagon1):
    m = octagon1
    kappa = kappa_const(m, -1.2)
    newton = newton_solve(m.mesh, kappa, m.lengths)
    cont = continuation_solve(m.mesh, kappa, m.lengths,
                              np.zeros(m.mesh.vertex_count),
                              ContinuationConfig(steps=64, newton_polish=False))
    assert np.max(np.abs(cont.u - newton.u)) <= 1e-6
    assert cont.linearity_defect <= 1e-6
    for c, res, defect in cont.checkpoint_log:
        assert res == pytest.approx((1.0 - c) * np.max(np.abs(
            discrete_curvature(m.mesh, kappa, np.zeros(m.mesh.vertex_count),
                               m.lengths))), rel=0.2)


def test_continuation_rk4_order(octagon0):
    m = octagon0
    kappa = kappa_const(m, -1.5)
    u0 = np.array([0.05, -0.03])
    ref = continuation_solve(m.mesh, kappa, m.lengths, u0,
                             ContinuationConfig(steps=256, newton_polish=False)).u
    errs = []
    for steps in (2, 4, 8):
        got = continuation_solve(m.mesh, kappa, m.lengths, u0,
                                 ContinuationConfig(steps=steps,
                                                    newton_polish=False)).u
        errs.append(np.max(np.abs(got - ref)))
    order = np.log2(errs[0] / errs[1])
    assert order > 3.5
    assert errs[2] < errs[1] < errs[0]


def test_continuation_polish(octagon1):
    m = octagon1
    kappa = kappa_const(m, -0.8)
    result = continuation_solve(m.mesh, kappa, m.lengths,
                                np.zeros(m.mesh.vertex_count),
                                ContinuationConfig(steps=32))
    assert result.converged
    assert result.residual_inf <= 1e-10


# -- energy -------------------------------------------------------------------

def test_energy_path_independence(octagon1):
    m = octagon1
    kappa = kappa_const(m, -1.1)
    rng = np.random.default_rng(9)
    a = rng.uniform(-0.05, 0.05, m.mesh.vertex_count)
    b = rng.uniform(-0.05, 0.05, m.mesh.vertex_count)
    c = rng.uniform(-0.05, 0.05, m.mesh.vertex_count)
    direct = energy_along_path(m.mesh, kappa, m.lengths, a, b)
    detour = (energy_along_path(m.mesh, kappa, m.lengths, a, c)
              + energy_along_path(m.mesh, kappa, m.lengths, c, b))
    assert direct == pytest.approx(detour, abs=1e-10)


def test_energy_minimum_at_solution(octagon1):
    m = octagon1
    kappa = kappa_const(m)
    u_star = newton_solve(m.mesh, kappa, m.lengths).u
    rng = np.random.default_rng(11)
    for _ in range(5):
        v = rng.uniform(-0.05, 0.05, m.mesh.vertex_count)
        # moving away from the solution raises the energy
        gain = energy_along_path(m.mesh, kappa, m.lengths, u_star, u_star + v)
        assert gain > 0
