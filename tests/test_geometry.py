import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcpm import geometry
from dcpm.geometry import (InfeasibleFaceError, acuteness_margin, corner_angles,
                           discrete_curvature, evaluate_point, gauss_bonnet_residual,
                           infeasible_slots, max_length, model_length,
                           scale_lengths, triangle_angles)

from conftest import make_pillow, random_feasible_instance

# frozen oracle values (high-precision evaluation of the closed forms)
MODEL_K1_L1 = 0.962423650119206895         # 2*asinh(0.5)
MODEL_K2_L1 = 1.7627471740390861           # 2*asinh(1)
EQUILATERAL_H1_ANGLE = 0.91879787217802737  # acos((cosh(1)^2-cosh(1))/sinh(1)^2)


# -- length transforms -------------------------------------------------------

def test_scale_identity(octagon1):
    u = np.zeros(octagon1.mesh.vertex_count)
    assert np.array_equal(scale_lengths(octagon1.mesh, u, octagon1.lengths),
                          octagon1.lengths)


def test_scale_single_edge(tetra):
    mesh, lengths = tetra
    u = np.zeros(4)
    u[0] = 2.0 * np.log(2.0)
    scaled = scale_lengths(mesh, u, lengths)
    assert scaled[0] == pytest.approx(2.0, rel=1e-15)   # edge 0-1
    assert scaled[5] == 1.0                              # edge 2-3 untouched


def test_scale_loop_edge(octagon0):
    # side edges 8..11 are loops at vertex 1: factor exp(u_1)
    u = np.array([0.0, 0.3])
    scaled = scale_lengths(octagon0.mesh, u, octagon0.lengths)
    assert scaled[8] == pytest.approx(np.exp(0.3) * octagon0.lengths[8], rel=1e-15)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_scale_composition(octagon1, seed):
    rng = np.random.default_rng(seed)
    mesh = octagon1.mesh
    u = rng.normal(size=mesh.vertex_count)
    v = rng.normal(size=mesh.vertex_count)
    lhs = scale_lengths(mesh, u, scale_lengths(mesh, v, octagon1.lengths))
    rhs = scale_lengths(mesh, u + v, octagon1.lengths)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def test_model_length():
    assert model_length(-1.0, 1.0) == pytest.approx(MODEL_K1_L1, rel=1e-15)
    assert model_length(-2.0, 1.0) == pytest.approx(MODEL_K2_L1, rel=1e-15)
    # asinh(x) ~ x as x -> 0
    assert model_length(-1.0, 1e-8) == pytest.approx(1e-8, rel=1e-15)


def test_model_length_relation():
    rng = np.random.default_rng(7)
    kappa = -np.exp(rng.uniform(-2, 2, 200))
    lengths = np.exp(rng.uniform(-3, 1, 200))
    # strict monotonicity in l
    h1 = model_length(kappa, lengths)
    h2 = model_length(kappa, lengths * 1.01)
    assert (h2 > h1).all()


def test_model_length_tanh_identity():
    rng = np.random.default_rng(8)
    kappa = rng.uniform(-5, -0.1, 1000)
    lengths = np.exp(rng.uniform(-4, 2, 1000))
    lhs = np.tanh(model_length(kappa, lengths) / 2.0) ** 2
    rhs = kappa**2 * lengths**2 / (kappa**2 * lengths**2 + 4.0)
    np.testing.assert_allclose(lhs, rhs, atol=1e-14)


# -- angles -------------------------------------------------------------------

def test_equilateral_angles():
    ang = triangle_angles(np.array([1.0, 1.0, 1.0]))
    np.testing.assert_allclose(ang, EQUILATERAL_H1_ANGLE, rtol=1e-14)
    assert ang.sum() < np.pi


def test_euclidean_limit_angles():
    t = 1e-4
    ang = triangle_angles(np.array([t, t, t]))
    np.testing.assert_allclose(ang, np.pi / 3, atol=1e-8)


@pytest.mark.parametrize("eps", [1e-100, 1e-160, 1e-200, 1e-300])
def test_tiny_triangle_angles(eps):
    # the sinh products of the half-angle form underflow on tiny sides; the
    # angles must still be the Euclidean ones of the same shape
    H = np.array([0.7, 0.9, 1.1])
    ang = triangle_angles(eps * H)
    np.testing.assert_allclose(ang, triangle_angles(1e-100 * H), rtol=0, atol=1e-12)
    a, b, c = np.roll(H, -1), H, np.roll(H, 1)   # slot s is opposite side s+1
    np.testing.assert_allclose(ang, np.arccos((b * b + c * c - a * a) / (2 * b * c)),
                               rtol=0, atol=1e-12)
    # a tiny row beside a normal one leaves the normal row's bits alone
    mixed = triangle_angles(np.stack([H, eps * H]))
    assert np.array_equal(mixed[0], triangle_angles(H))
    assert np.array_equal(mixed[1], ang)


def test_infeasible_triangle():
    with pytest.raises(InfeasibleFaceError):
        triangle_angles(np.array([2.2, 1.0, 1.0]))


def test_angle_slot_convention():
    # slot s sits between sides s and s-1, opposite side s+1: a longer
    # opposite side means a larger angle
    ang = triangle_angles(np.array([1.0, 1.5, 1.0]))
    assert ang[0] == max(ang)           # side slot 1 is opposite corner 0
    # relabeling (cyclic permutation) permutes angles identically
    ang_rolled = triangle_angles(np.array([1.5, 1.0, 1.0]))
    np.testing.assert_allclose(np.roll(ang, -1), ang_rolled, rtol=1e-14)


def test_corner_angles_pillow():
    mesh, lengths = make_pillow(1.0, 1.0, 1.0)
    kappa = np.array([-1.0, -1.0])
    h = model_length(-1.0, 1.0)
    expected = triangle_angles(np.array([h, h, h]))
    angles = corner_angles(mesh, kappa, lengths[mesh.face_edges])
    np.testing.assert_allclose(angles, np.tile(expected, (2, 1)), rtol=1e-14)


def test_infeasible_face_reports_face_id():
    mesh, lengths = make_pillow(5.0, 1.0, 1.0)
    with pytest.raises(InfeasibleFaceError) as exc:
        corner_angles(mesh, np.array([-1.0, -1.0]), lengths[mesh.face_edges])
    assert 0 in exc.value.face_ids


# -- bit-identity pins ----------------------------------------------------------
# The kernels take slot permutations by column index and their three-term
# sums and maxima column by column; these references keep the np.roll and
# last-axis-reduction forms they replaced, which must give the same bits.

def infeasible_slots_ref(H):
    s = H.sum(axis=-1)
    m = H.max(axis=-1)
    with np.errstate(invalid="ignore"):
        return ((m >= (s - m) - geometry.FEASIBILITY_RTOL * m)
                | ~(s <= geometry.MAX_MODEL_PERIMETER))


def triangle_angles_ref(H):
    H = np.asarray(H, dtype=float)
    bad = np.atleast_1d(infeasible_slots_ref(H))
    if bad.any():
        raise InfeasibleFaceError(np.nonzero(bad)[0])
    a = np.roll(H, -1, axis=-1)
    b, c = H, np.roll(H, 1, axis=-1)
    sa = 0.5 * (-a + b + c)
    sb = 0.5 * (a - b + c)
    sc = 0.5 * (a + b - c)
    s = 0.5 * (a + b + c)
    sb, sc, s, sa = np.sinh(sb), np.sinh(sc), np.sinh(s), np.sinh(sa)
    num, den = sb * sc, s * sa
    tiny = np.minimum(num, den) < np.finfo(float).tiny
    if tiny.any():
        num[tiny] = (sb[tiny] / s[tiny]) * (sc[tiny] / sa[tiny])
        den[tiny] = 1.0
    return 2.0 * np.arctan(np.sqrt(np.maximum(num / den, 0.0)))


def assert_kernels_match_reference(H):
    assert np.array_equal(infeasible_slots(H), infeasible_slots_ref(H))
    try:
        expected = triangle_angles_ref(H)
    except InfeasibleFaceError as exc:
        with pytest.raises(InfeasibleFaceError) as got:
            triangle_angles(H)
        assert got.value.face_ids == exc.face_ids
    else:
        assert np.array_equal(triangle_angles(H), expected)


# the (3,) and (2, 3) inputs of the angle tests above
@pytest.mark.parametrize("H", [
    [1.0, 1.0, 1.0], [1e-4, 1e-4, 1e-4], [0.7, 0.9, 1.1], [1e-300, 9e-301, 1.1e-300],
    [[0.7, 0.9, 1.1], [7e-201, 9e-201, 1.1e-200]], [2.2, 1.0, 1.0],
    [1.0, 1.5, 1.0], [0.8, 1.1726816346617717, 0.6], [np.inf, 1.0, 1.0]])
def test_kernels_match_reference_on_small_shapes(H):
    assert_kernels_match_reference(np.array(H))


def test_infeasible_slots_matches_reference_at_the_boundary():
    # the longest side swept ulp by ulp across the feasibility threshold, in
    # each slot: there the mask depends on the last bit of the sum
    rng = np.random.default_rng(0)
    a, b = rng.uniform(0.1, 2.0, (2, 50, 1))
    c = (a + b) / (1 + geometry.FEASIBILITY_RTOL) * (1 + np.arange(-64, 65) * 2.0**-52)
    rows = np.stack(np.broadcast_arrays(a, b, c), axis=-1).reshape(-1, 3)
    H = np.concatenate([rows, rows[:, [1, 2, 0]], rows[:, [2, 0, 1]]])
    expected = infeasible_slots_ref(H)
    assert expected.any() and not expected.all()
    assert np.array_equal(infeasible_slots(H), expected)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_kernels_match_reference_on_feasible_instances(octagon_levels, level, seed):
    m = octagon_levels[level]
    kappa, u = random_feasible_instance(m, np.random.default_rng(seed))
    scaled = scale_lengths(m.mesh, u, m.lengths)
    H = model_length(kappa[:, None], scaled[m.mesh.face_edges])
    assert_kernels_match_reference(H)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_kernels_match_reference_on_any_lengths(seed):
    # rows of any scale, feasible or not, tiny or past the sinh range
    rng = np.random.default_rng(seed)
    H = rng.exponential(size=(50, 3)) * 10.0 ** rng.uniform(-300, 300, (50, 1))
    assert_kernels_match_reference(H)
    assert_kernels_match_reference(H[~infeasible_slots_ref(H)])


# -- curvature ----------------------------------------------------------------

def test_six_equilateral_corners(octagon1):
    # every midpoint vertex of the level-1 mesh has exactly six corners;
    # with all model lengths 1 each corner angle is the equilateral value
    mesh = octagon1.mesh
    lengths = np.full(mesh.edge_count, 2.0 * np.sinh(0.5))   # H = 1 at kappa=-1
    kappa = np.full(mesh.face_count, -1.0)
    K = discrete_curvature(mesh, kappa, np.zeros(mesh.vertex_count), lengths)
    expected = 2.0 * np.pi - 6.0 * EQUILATERAL_H1_ANGLE      # 0.77039807...
    midpoints = range(2, mesh.vertex_count)
    for v in midpoints:
        assert K[v] == pytest.approx(expected, rel=1e-12)


def test_cone_angle_2pi_vertex(octagon0):
    # choose u so the discrete angle sums hit exactly 2*pi is hard; instead
    # check the solved configuration: K = 0 everywhere means every vertex is
    # a cone-angle-2*pi vertex
    from dcpm.solver import newton_solve
    kappa = np.full(8, -1.0)
    result = newton_solve(octagon0.mesh, kappa, octagon0.lengths)
    assert result.converged
    K = discrete_curvature(octagon0.mesh, kappa, result.u, octagon0.lengths)
    np.testing.assert_allclose(K, 0.0, atol=1e-10)


def test_gauss_bonnet_random(octagon1):
    rng = np.random.default_rng(42)
    mesh = octagon1.mesh
    for _ in range(25):
        kappa, u = random_feasible_instance(octagon1, rng)
        residual = gauss_bonnet_residual(
            mesh, evaluate_point(mesh, kappa, u, octagon1.lengths).angles)
        assert abs(residual) <= 1e-9 * mesh.face_count


def test_curvature_summation_deterministic(octagon2):
    kappa = np.full(octagon2.mesh.face_count, -1.3)
    u = np.linspace(-0.05, 0.05, octagon2.mesh.vertex_count)
    K1 = discrete_curvature(octagon2.mesh, kappa, u, octagon2.lengths)
    K2 = discrete_curvature(octagon2.mesh, kappa, u, octagon2.lengths)
    assert np.array_equal(K1, K2)


# -- diagnostics --------------------------------------------------------------

def test_acuteness_margin_equilateral(octagon1):
    mesh = octagon1.mesh
    lengths = np.full(mesh.edge_count, 2.0 * np.sinh(0.5))
    kappa = np.full(mesh.face_count, -1.0)
    margin = acuteness_margin(corner_angles(mesh, kappa, lengths[mesh.face_edges]))
    assert margin == pytest.approx(np.pi / 2 - EQUILATERAL_H1_ANGLE, rel=1e-12)


def test_right_angle_margin_nonpositive():
    # hyperbolic right triangle: cosh(c) = cosh(a)*cosh(b)
    a, b = 0.8, 0.6
    c = np.arccosh(np.cosh(a) * np.cosh(b))
    ang = triangle_angles(np.array([a, c, b]))
    assert np.pi / 2 - ang.max() <= 1e-12


def test_margin_euclidean_limit(octagon1):
    mesh = octagon1.mesh
    kappa = np.full(mesh.face_count, -1.0)
    base = np.full(mesh.edge_count, 1.0)
    # hyperbolic angles grow toward the Euclidean pi/3 as lengths shrink,
    # so the margin decreases toward pi/6 (stop before roundoff dominates)
    margins = [acuteness_margin(corner_angles(mesh, kappa,
                                              base[mesh.face_edges] * 10.0**-k))
               for k in range(1, 5)]
    assert all(m2 < m1 for m1, m2 in zip(margins, margins[1:]))
    assert margins[-1] == pytest.approx(np.pi / 6, abs=1e-6)


def test_max_length():
    assert max_length(np.array([1.0, 2.0, 3.0])) == 3.0
    assert max_length(np.full(5, 0.7)) == 0.7


def test_max_length_scaling_bound(octagon1):
    rng = np.random.default_rng(3)
    u = rng.normal(scale=0.5, size=octagon1.mesh.vertex_count)
    scaled = scale_lengths(octagon1.mesh, u, octagon1.lengths)
    assert max_length(scaled) <= np.exp(u.max()) * max_length(octagon1.lengths) + 1e-12
