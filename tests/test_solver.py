import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcpm import models, solver
from dcpm.geometry import (InfeasibleFaceError, acuteness_margin, corner_angles,
                           discrete_curvature, evaluate_point, infeasible_slots,
                           model_length, scale_lengths)
from dcpm.solver import (ContinuationConfig, LinearSolveError,
                         NotPositiveDefiniteError, SolveConfig, SolverInputError,
                         continuation_solve, newton_solve, solve_linear_spd,
                         validate_inputs)

from conftest import (TETRA_TEXT, degenerate_lengths, jacobian_at,
                      random_feasible_instance)


def kappa_const(m, value=-1.0):
    return np.full(m.mesh.face_count, value)


def shifted(J, c):
    """J + c I, in CSC form like the Jacobian it shifts."""
    import scipy.sparse as sp

    return J + c * sp.identity(J.shape[0], format="csc")


def test_readme_library_example():
    # README's example, run as written: it pins the package namespace
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    scope = {}
    exec(re.search(r"```python\n(.*?)```", readme, re.S).group(1), scope)
    assert scope["result"].converged and scope["result"].residual_inf <= 1e-10


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
    with pytest.raises(InfeasibleFaceError, match="infeasible"):
        newton_solve(octagon1.mesh, kappa_const(octagon1), octagon1.lengths, cfg)


def test_infeasible_start_is_its_own_error(octagon1):
    c0, c1, c2 = octagon1.mesh.face_corners[0]
    u0 = np.zeros(octagon1.mesh.vertex_count)
    u0[c0] = u0[c1] = 6.0
    u0[c2] = -6.0
    with pytest.raises(InfeasibleFaceError, match="initial point infeasible"):
        continuation_solve(octagon1.mesh, kappa_const(octagon1), octagon1.lengths,
                           u0, ContinuationConfig(steps=1))


def flagged_face_ids(m, kappa, u):
    """The ids of the faces that infeasible_slots flags at u."""
    slot_lengths = scale_lengths(m.mesh, u, m.lengths)[m.mesh.face_edges]
    return m.mesh.face_ids[infeasible_slots(model_length(kappa[:, None], slot_lengths))]


def test_infeasibility_names_its_faces_and_point(octagon0, octagon1):
    # every solver raises the geometry's error, with the flagged faces' ids
    m, kappa = octagon1, kappa_const(octagon1)
    c0, c1, c2 = m.mesh.face_corners[0]
    u0 = np.zeros(m.mesh.vertex_count)
    u0[c0] = u0[c1] = 6.0
    u0[c2] = -6.0
    expected = flagged_face_ids(m, kappa, u0)
    assert len(expected) > 0
    for run in (lambda: newton_solve(m.mesh, kappa, m.lengths, SolveConfig(initial_u=u0)),
                lambda: continuation_solve(m.mesh, kappa, m.lengths, u0,
                                           ContinuationConfig(steps=1))):
        with pytest.raises(InfeasibleFaceError, match="^initial point infeasible: ") as exc:
            run()
        assert exc.value.face_ids == expected.tolist()

    # a feasible start whose one RK4 step leaves the feasible set at a stage
    m, kappa = octagon0, kappa_const(octagon0)
    u0 = np.random.default_rng(3).normal(0.0, 1.0, m.mesh.vertex_count)
    assert len(flagged_face_ids(m, kappa, u0)) == 0
    with pytest.raises(InfeasibleFaceError,
                       match=r"^infeasible configuration at t = 0\.5: ") as exc:
        continuation_solve(m.mesh, kappa, m.lengths, u0,
                           ContinuationConfig(steps=1, newton_polish=False))
    assert exc.value.face_ids == list(range(8))


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
    assert not isinstance(exc.value, InfeasibleFaceError)
    assert "infeasible" not in str(exc.value)


def test_config_validation():
    for make in (lambda: SolveConfig(tolerance=0.0),
                 lambda: SolveConfig(tolerance=np.inf),
                 lambda: SolveConfig(max_iterations=0),
                 lambda: SolveConfig(max_iterations=1.5),
                 lambda: ContinuationConfig(steps=0),
                 lambda: ContinuationConfig(steps=2.5)):
        with pytest.raises(ValueError):
            make()


def test_config_counts_accept_numpy_integers():
    assert SolveConfig(max_iterations=np.int64(3)).max_iterations == 3
    assert ContinuationConfig(steps=np.int32(2)).steps == 2


def test_list_inputs_solve_like_arrays(octagon1):
    # validate_inputs converts the inputs once; the solvers use its arrays
    m = octagon1
    kappa = models.dual_distance_kappa(m.mesh, 0.5)
    u0 = np.random.default_rng(3).normal(0.0, 0.05, m.mesh.vertex_count)
    cfg = ContinuationConfig(steps=8)
    pairs = [
        (newton_solve(m.mesh, kappa, m.lengths, SolveConfig(initial_u=u0)),
         newton_solve(m.mesh, kappa.tolist(), m.lengths.tolist(),
                      SolveConfig(initial_u=u0.tolist()))),
        (continuation_solve(m.mesh, kappa, m.lengths, u0, cfg),
         continuation_solve(m.mesh, kappa.tolist(), m.lengths.tolist(),
                            u0.tolist(), cfg)),
    ]
    for array_result, list_result in pairs:
        assert array_result.converged
        np.testing.assert_array_equal(list_result.u, array_result.u)
        assert list_result.step_log == array_result.step_log


def test_validate_inputs_returns_the_solver_arrays(octagon0):
    m = octagon0
    kappa, u = kappa_const(m), np.zeros(m.mesh.vertex_count)
    checked = validate_inputs(m.mesh, kappa, m.lengths, u)
    # float64 kappa and lengths pass through; u is always a copy
    assert len(checked) == 3
    assert checked[0] is kappa and checked[1] is m.lengths
    assert checked[2] is not u and checked[2].dtype == np.float64
    as_lists = validate_inputs(m.mesh, kappa.tolist(), [1] * m.mesh.edge_count,
                               u.tolist())
    assert all(a.dtype == np.float64 for a in as_lists)
    # text is not a number, and a complex value is not truncated to its real part
    for bad in (["x"] * m.mesh.face_count, kappa + 0.5j):
        with pytest.raises(SolverInputError, match="real numbers"):
            validate_inputs(m.mesh, bad, m.lengths, u)


# -- linear solve -------------------------------------------------------------

def test_solve_linear_spd_roundtrip(octagon1):
    rng = np.random.default_rng(0)
    J = jacobian_at(octagon1.mesh, kappa_const(octagon1),
                    np.zeros(octagon1.mesh.vertex_count), octagon1.lengths)
    rhs = rng.normal(size=octagon1.mesh.vertex_count)
    d, lu = solve_linear_spd(J, rhs)
    np.testing.assert_allclose(J.toarray() @ d, rhs, atol=1e-11)
    np.testing.assert_array_equal(d, lu.solve(rhs))


def test_zero_rhs_direction_is_not_checked(octagon1):
    # with rhs = 0 there is no descent to test, and any residual check would
    # compare against 0: the direction is returned as it is
    J = jacobian_at(octagon1.mesh, kappa_const(octagon1),
                    np.zeros(octagon1.mesh.vertex_count), octagon1.lengths)
    d = np.ones(octagon1.mesh.vertex_count)
    assert solver._checked_direction(J, np.zeros_like(d), d) is d


def test_solve_linear_not_pd(octagon1):
    J = jacobian_at(octagon1.mesh, kappa_const(octagon1),
                    np.zeros(octagon1.mesh.vertex_count), octagon1.lengths)
    J = shifted(J, -100.0)                   # force indefiniteness
    with pytest.raises(NotPositiveDefiniteError):
        solve_linear_spd(J, np.ones(octagon1.mesh.vertex_count))
    assert issubclass(NotPositiveDefiniteError, LinearSolveError)


# -- Newton -------------------------------------------------------------------

def test_newton_evaluates_angles_once_per_point(corner_angle_calls):
    # level 5, dual-distance kappa, seeded u0: the newton-l5 benchmark inputs.
    # The start and every trial point take one angle evaluation each; the
    # Jacobian reuses the accepted trial's angles.
    m = models.octagon_fixture(5)
    kappa = models.dual_distance_kappa(m.mesh, 0.5)
    u0 = np.random.default_rng(1).normal(0.0, 0.01, m.mesh.vertex_count)
    result = newton_solve(m.mesh, kappa, m.lengths,
                          SolveConfig(tolerance=1e-10, initial_u=u0))
    assert result.converged
    # a step of length 2**-b was accepted at the (b + 1)-th trial point
    trial_points = sum(1 - round(np.log2(step)) for _, _, step, _ in result.step_log)
    assert len(corner_angle_calls) == 1 + trial_points == 6


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


def test_newton_solves_from_a_degenerate_start(octagon2):
    # an obtuse start is a valid one: the line search accepts any feasible
    # trial point that passes the Armijo test, whatever its margin
    m = octagon2
    kappa = kappa_const(m)
    lengths = degenerate_lengths(m)
    margin = acuteness_margin(corner_angles(m.mesh, kappa, lengths[m.mesh.face_edges]))
    assert margin == pytest.approx(-1.477, abs=1e-3)
    result = newton_solve(m.mesh, kappa, lengths)
    assert result.converged
    assert result.iterations == 5
    flow = continuation_solve(m.mesh, kappa, lengths, np.zeros(m.mesh.vertex_count))
    assert flow.converged
    assert np.max(np.abs(result.u - flow.u)) <= 1e-9


def test_newton_gradient_fallback(octagon1, monkeypatch):
    # a failed Newton solve is replaced by a gradient step, d = -K
    from dcpm import solver
    m = octagon1
    kappa = kappa_const(m)
    real_solve = solver.solve_linear_spd
    calls = []

    def fail_first(J, rhs):
        calls.append(len(calls))
        if len(calls) == 1:
            raise NotPositiveDefiniteError("forced")
        return real_solve(J, rhs)

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


def test_continuation_returns_the_polish(octagon1):
    # the result is the Newton polish's own: its iterations and step log
    m = octagon1
    kappa = kappa_const(m)
    result = continuation_solve(m.mesh, kappa, m.lengths,
                                np.zeros(m.mesh.vertex_count),
                                ContinuationConfig(steps=4))
    assert result.converged
    assert result.iterations >= 1
    assert len(result.step_log) == result.iterations
    assert len(result.checkpoint_log) == 3


def test_results_carry_their_angles(octagon1):
    m = octagon1
    kappa = kappa_const(m, -1.2)
    u0 = np.zeros(m.mesh.vertex_count)
    results = [newton_solve(m.mesh, kappa, m.lengths)] + [
        continuation_solve(m.mesh, kappa, m.lengths, u0,
                           ContinuationConfig(steps=8, newton_polish=polish))
        for polish in (True, False)]
    for result in results:
        np.testing.assert_array_equal(
            result.angles,
            evaluate_point(m.mesh, kappa, result.u, m.lengths).angles)


def test_flow_l2_angle_evaluations(octagon2, corner_angle_calls):
    # the flow-l2 benchmark op: the start, then three stages and the step's
    # end per RK4 step; the end point feeds the checkpoint, the next step's
    # first stage and the polish, which starts converged
    m = octagon2
    kappa = models.dual_distance_kappa(m.mesh, 0.5)
    u0 = np.random.default_rng(1).normal(0.0, 0.05, m.mesh.vertex_count)
    result = continuation_solve(m.mesh, kappa, m.lengths, u0,
                                ContinuationConfig(steps=250))
    assert result.converged and result.iterations == 0
    assert len(corner_angle_calls) == 1 + 4 * 250 == 1001


def test_flow_l2_curvature_evaluations(octagon2, curvature_calls):
    # the flow-l2 benchmark op reads K at the start and at each step's end;
    # RK4 stages 2-4 need only their Jacobians
    m = octagon2
    kappa = models.dual_distance_kappa(m.mesh, 0.5)
    u0 = np.random.default_rng(1).normal(0.0, 0.05, m.mesh.vertex_count)
    result = continuation_solve(m.mesh, kappa, m.lengths, u0,
                                ContinuationConfig(steps=250))
    assert result.converged and result.iterations == 0
    assert len(curvature_calls) == 1 + 250 == 251


# -- held factor --------------------------------------------------------------

def newton_refactoring_every_step(mesh, kappa, lengths, cfg=None):
    """Reference: ``newton_solve`` with every direction from a fresh factor."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver._HeldFactor, "solve",
                   lambda self, J, rhs, guess=None:
                   solver.solve_linear_spd(J, rhs)[0])
        return newton_solve(mesh, kappa, lengths, cfg)


def test_newton_l5_factors_once(factorizations):
    # the newton-l5 benchmark inputs: the first direction is factored, the
    # other four are CG on that factor
    m = models.octagon_fixture(5)
    kappa = models.dual_distance_kappa(m.mesh, 0.5)
    u0 = np.random.default_rng(1).normal(0.0, 0.01, m.mesh.vertex_count)
    result = newton_solve(m.mesh, kappa, m.lengths,
                          SolveConfig(tolerance=1e-10, initial_u=u0))
    assert result.converged and result.iterations == 5
    assert not result.used_gradient_fallback
    assert len(factorizations) == 1


def test_flow_l2_factors_far_fewer_than_its_systems(octagon2, factorizations):
    # the flow-l2 benchmark op solves 1000 systems, one per RK4 stage
    m = octagon2
    kappa = models.dual_distance_kappa(m.mesh, 0.5)
    u0 = np.random.default_rng(1).normal(0.0, 0.05, m.mesh.vertex_count)
    result = continuation_solve(m.mesh, kappa, m.lengths, u0,
                                ContinuationConfig(steps=250))
    assert result.converged
    assert 1 <= len(factorizations) <= 10


def test_continuation_hands_its_factor_to_the_polish(octagon1, factorizations):
    # four RK4 steps leave the polish a Newton step, solved by CG on the
    # factor of the first RK4 stage
    m = octagon1
    result = continuation_solve(m.mesh, kappa_const(m), m.lengths,
                                np.zeros(m.mesh.vertex_count),
                                ContinuationConfig(steps=4))
    assert result.converged and result.iterations >= 1
    assert len(factorizations) == 1


def _held_on(m, u, factorizations):
    """A held factor of the Jacobian at u, and the system it was made from."""
    kappa = models.dual_distance_kappa(m.mesh, 0.5)
    J = jacobian_at(m.mesh, kappa, u, m.lengths)
    held = solver._HeldFactor()
    rhs = np.ones(m.mesh.vertex_count)
    d = held.solve(J, rhs)
    assert held.factor is not None and len(factorizations) == 1
    np.testing.assert_array_equal(d, held.factor.solve(rhs))
    return held, kappa, rhs


def test_held_factor_refactors_past_the_cap(octagon1, factorizations,
                                            monkeypatch):
    # CG on a factor of J(0) needs more than one step at another point; past
    # the cap the system is factored afresh, exactly as solve_linear_spd does
    m = octagon1
    held, kappa, rhs = _held_on(m, np.zeros(m.mesh.vertex_count), factorizations)
    J = jacobian_at(m.mesh, kappa, np.full(m.mesh.vertex_count, 0.2), m.lengths)
    old = held.factor
    assert solver._preconditioned_cg(J, rhs, old) is not None
    monkeypatch.setattr(solver, "CG_MAX_ITERATIONS", 1)
    assert solver._preconditioned_cg(J, rhs, old) is None
    d = held.solve(J, rhs)
    assert len(factorizations) == 2
    assert held.factor is not None and held.factor is not old
    np.testing.assert_array_equal(d, held.factor.solve(rhs))
    np.testing.assert_array_equal(d, solve_linear_spd(J, rhs)[0])


def test_held_factor_refactors_on_negative_curvature(octagon1, factorizations):
    # the indefinite system of test_solve_linear_not_pd: CG's first search
    # direction has p . J p < 0, and the fresh factor gives no descent
    m = octagon1
    held, kappa, rhs = _held_on(m, np.zeros(m.mesh.vertex_count), factorizations)
    J = shifted(jacobian_at(m.mesh, kappa, np.zeros(m.mesh.vertex_count),
                            m.lengths), -100.0)
    p = held.factor.solve(rhs)
    assert p @ (J @ p) < 0
    with pytest.raises(NotPositiveDefiniteError):
        held.solve(J, rhs)
    assert len(factorizations) == 2
    assert held.factor is None


def test_cg_directions_pass_the_residual_check(octagon1, factorizations,
                                               monkeypatch):
    # a CG direction is checked like an LU one: stopped early, it fails
    m = octagon1
    held, kappa, rhs = _held_on(m, np.zeros(m.mesh.vertex_count), factorizations)
    J = jacobian_at(m.mesh, kappa, np.full(m.mesh.vertex_count, 0.2), m.lengths)
    monkeypatch.setattr(solver, "CG_RTOL", 1e-4)
    with pytest.raises(LinearSolveError, match="residual"):
        held.solve(J, rhs)
    assert len(factorizations) == 1


def test_newton_falls_back_when_the_held_factor_fails(octagon1, factorizations,
                                                      monkeypatch):
    # the second Newton system is made indefinite: CG on the held factor
    # stops, the refactor raises NotPositiveDefiniteError, and the step falls
    # back to -K; the next system is factored afresh
    m = octagon1
    kappa = models.dual_distance_kappa(m.mesh, 0.5)
    real_assemble = solver.assemble_jacobian
    assembled = []

    def indefinite_second(*args):
        J = real_assemble(*args)
        if len(assembled) == 1:
            J = shifted(J, -100.0)
        assembled.append(J)
        return J

    monkeypatch.setattr(solver, "assemble_jacobian", indefinite_second)
    two = newton_solve(m.mesh, kappa, m.lengths, SolveConfig(max_iterations=2))
    assert two.used_gradient_fallback and len(factorizations) == 2
    first = newton_solve(m.mesh, kappa, m.lengths, SolveConfig(max_iterations=1))
    K1 = discrete_curvature(m.mesh, kappa, first.u, m.lengths)
    np.testing.assert_array_equal(two.u, first.u - two.step_log[1][2] * K1)

    factorizations.clear()
    assembled.clear()
    result = newton_solve(m.mesh, kappa, m.lengths)
    assert result.converged and result.used_gradient_fallback
    assert len(factorizations) == 3


def test_newton_past_the_cap_is_the_reference(octagon1, monkeypatch):
    # with a cap of one CG step every later system is refactored, so the
    # iteration is the reference's, bit for bit
    m = octagon1
    kappa = models.dual_distance_kappa(m.mesh, 0.5)
    reference = newton_refactoring_every_step(m.mesh, kappa, m.lengths)
    monkeypatch.setattr(solver, "CG_MAX_ITERATIONS", 1)
    result = newton_solve(m.mesh, kappa, m.lengths)
    assert result.converged
    np.testing.assert_array_equal(result.u, reference.u)
    assert result.step_log == reference.step_log


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 2), st.integers(0, 2**32 - 1))
def test_held_factor_matches_refactoring_every_step(octagon_levels, level, seed):
    m = octagon_levels[level]
    kappa, u0 = random_feasible_instance(m, np.random.default_rng(seed))
    cfg = SolveConfig(initial_u=u0)
    reference = newton_refactoring_every_step(m.mesh, kappa, m.lengths, cfg)
    result = newton_solve(m.mesh, kappa, m.lengths, cfg)
    assert reference.converged and result.converged
    assert result.iterations == reference.iterations
    assert np.max(np.abs(result.u - reference.u)) <= 1e-12


# -- scaling covariance -------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2), st.integers(0, 2**32 - 1), st.floats(-1.0, 1.0))
def test_newton_scaling_covariance(octagon_levels, level, seed, c):
    # K depends on kappa and u only through kappa * exp(u) on each length, so
    # u*(kappa * e^-c) = u*(kappa) + c; converge measures error_inf against it
    m = octagon_levels[level]
    kappa, u0 = random_feasible_instance(m, np.random.default_rng(seed))
    cfg = SolveConfig(initial_u=u0)
    base = newton_solve(m.mesh, kappa, m.lengths, cfg)
    scaled = newton_solve(m.mesh, kappa * np.exp(-c), m.lengths, cfg)
    assert base.converged and scaled.converged
    assert np.max(np.abs(scaled.u - (base.u + c))) <= 1e-8


# -- energy -------------------------------------------------------------------

def path_energy(m, kappa, a, b):
    """Line integral of K . du along the segment from a to b, by 32-node
    Gauss-Legendre quadrature: an oracle for the energy whose gradient is K."""
    nodes, weights = np.polynomial.legendre.leggauss(32)
    return sum(0.5 * w * float(discrete_curvature(m.mesh, kappa, a + t * (b - a),
                                                  m.lengths) @ (b - a))
               for t, w in zip(0.5 * (nodes + 1.0), weights))


def test_energy_path_independence(octagon1):
    m = octagon1
    kappa = kappa_const(m, -1.1)
    rng = np.random.default_rng(9)
    a = rng.uniform(-0.05, 0.05, m.mesh.vertex_count)
    b = rng.uniform(-0.05, 0.05, m.mesh.vertex_count)
    c = rng.uniform(-0.05, 0.05, m.mesh.vertex_count)
    direct = path_energy(m, kappa, a, b)
    detour = path_energy(m, kappa, a, c) + path_energy(m, kappa, c, b)
    assert direct == pytest.approx(detour, abs=1e-10)


def test_energy_minimum_at_solution(octagon1):
    m = octagon1
    kappa = kappa_const(m)
    u_star = newton_solve(m.mesh, kappa, m.lengths).u
    rng = np.random.default_rng(11)
    for _ in range(5):
        v = rng.uniform(-0.05, 0.05, m.mesh.vertex_count)
        # moving away from the solution raises the energy
        assert path_energy(m, kappa, u_star, u_star + v) > 0
