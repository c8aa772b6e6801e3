import numpy as np
import pytest

from dcpm.calculus import laplacian_matrix
from dcpm.geometry import model_length, triangle_angles
from dcpm.jacobian import (CotangentSingularityError, jacobian_plan,
                           lambda_factor, tilde_theta)

from conftest import fd_jacobian, jacobian_at, random_feasible_instance, weights_at

# frozen oracle values for the equilateral H = 1 triangle
EQUILATERAL_H1_ANGLE = 0.91879787217802737
EQUILATERAL_TILDE = 1.1113973907058829     # (pi - theta) / 2 + theta - theta


def test_tilde_theta_equilateral():
    ang = np.full(3, EQUILATERAL_H1_ANGLE)
    np.testing.assert_allclose(tilde_theta(ang), EQUILATERAL_TILDE, rtol=1e-14)


def test_tilde_theta_range_random():
    rng = np.random.default_rng(0)
    for _ in range(200):
        H = np.exp(rng.uniform(-2, 1, 3))
        try:
            ang = triangle_angles(H)
        except Exception:
            continue
        t = tilde_theta(ang)
        assert (t > 0).all() and (t < np.pi).all()
        # the three values sum to (3*pi - angle sum)/2 + ... check identity
        assert t.sum() == pytest.approx(1.5 * np.pi - 0.5 * ang.sum(), rel=1e-13)


def test_lambda_factor_identity():
    rng = np.random.default_rng(1)
    kappa = rng.uniform(-5, -0.1, 100000)
    l = np.exp(rng.uniform(-4, 2, 100000))
    lhs = lambda_factor(kappa, l)
    rhs = np.tanh(model_length(kappa, l) / 2.0) ** 2
    np.testing.assert_allclose(lhs, rhs, atol=1e-14)
    assert (lhs > 0).all() and (lhs < 1).all()


def test_jacobian_symmetric_exactly(octagon1):
    rng = np.random.default_rng(2)
    kappa, u = random_feasible_instance(octagon1, rng)
    J = jacobian_at(octagon1.mesh, kappa, u, octagon1.lengths).toarray()
    assert np.array_equal(J, J.T)


def test_jacobian_symmetric_exactly_reversed_parallel_edges(octagon0):
    # the 8 spokes join the same two vertices; store every other one b -> a
    from dcpm.mesh import SurfaceMesh
    s = octagon0.mesh
    flip = (np.arange(s.edge_count) % 2 == 1) & (s.edges[:, 0] != s.edges[:, 1])
    mesh = SurfaceMesh(s.vertex_count,
                       np.where(flip[:, None], s.edges[:, ::-1], s.edges),
                       s.face_edges,
                       np.where(flip[s.face_edges], -s.face_signs, s.face_signs),
                       s.edge_ids, s.face_ids)
    rng = np.random.default_rng(5)
    for _ in range(20):
        kappa, u = random_feasible_instance(octagon0, rng)
        J = jacobian_at(mesh, kappa, u, octagon0.lengths)
        assert (J != J.T).nnz == 0


@pytest.mark.parametrize("level", [0, 1, 2])
def test_jacobian_matches_finite_differences(octagon_levels, level):
    m = octagon_levels[level]
    rng = np.random.default_rng(10 + level)
    for _ in range(3):
        kappa, u = random_feasible_instance(m, rng)
        J = jacobian_at(m.mesh, kappa, u, m.lengths).toarray()
        J_fd = fd_jacobian(m.mesh, kappa, u, m.lengths)
        scale = np.max(np.abs(J))
        assert np.max(np.abs(J - J_fd)) <= 1e-6 * scale


def test_jacobian_loops_hit_diagonal(octagon0):
    # loop edges put both endpoint contributions on one diagonal entry and
    # add nothing to the Laplacian; verified against finite differences
    kappa = np.full(8, -1.0)
    u = np.array([0.02, -0.01])
    J = jacobian_at(octagon0.mesh, kappa, u, octagon0.lengths).toarray()
    J_fd = fd_jacobian(octagon0.mesh, kappa, u, octagon0.lengths)
    assert np.max(np.abs(J - J_fd)) <= 1e-6 * np.max(np.abs(J))
    eta, _ = weights_at(octagon0.mesh, kappa, u, octagon0.lengths)
    L = laplacian_matrix(octagon0.mesh, eta).toarray()
    # only the 8 spoke edges couple the two vertices
    assert L[0, 1] == pytest.approx(eta[:8].sum(), rel=1e-15)


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_jacobian_plan_cached_and_matches_dense(octagon_levels, level):
    # the sparse pattern is built once per mesh and shared by every assembly
    m = octagon_levels[level]
    rng = np.random.default_rng(20 + level)
    kappa, u = random_feasible_instance(m, rng)
    J = jacobian_at(m.mesh, kappa, u, m.lengths)
    J_other = jacobian_at(m.mesh, kappa, 0.5 * u, m.lengths)
    assert J.format == "csc"
    assert jacobian_plan(m.mesh) is jacobian_plan(m.mesh)
    assert np.shares_memory(J.indices, J_other.indices)
    eta, diag = weights_at(m.mesh, kappa, u, m.lengths)
    ref = -laplacian_matrix(m.mesh, eta).toarray() + np.diag(diag)
    assert np.max(np.abs(J.toarray() - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_jacobian_positive_definite_acute(octagon0):
    kappa = np.full(8, -1.0)
    u = np.zeros(2)
    J = jacobian_at(octagon0.mesh, kappa, u, octagon0.lengths).toarray()
    assert np.linalg.eigvalsh(J).min() > 0


def test_diag_positive_on_feasible(octagon1):
    rng = np.random.default_rng(3)
    for _ in range(10):
        kappa, u = random_feasible_instance(octagon1, rng)
        _, diag = weights_at(octagon1.mesh, kappa, u, octagon1.lengths)
        assert (diag > 0).all()


def test_cotangent_singularity_raised(monkeypatch):
    # a near-degenerate triangle drives one half angle toward pi; at the
    # default tolerance the feasibility guard fires first, so widen the
    # singularity band to exercise the refusal path
    from dcpm import jacobian as jac
    from conftest import make_pillow

    monkeypatch.setattr(jac, "COT_SINGULARITY_TOL", 1e-4)
    l_degenerate = float(2.0 * np.sinh(2.0 * np.arcsinh(0.5)))   # H2 = 2*H0 at l0 = 1
    mesh, lengths = make_pillow(1.0, 1.0, l_degenerate * (1.0 - 1e-11))
    with pytest.raises(CotangentSingularityError):
        jacobian_at(mesh, np.full(2, -1.0), np.zeros(3), lengths)


def test_jacobian_row_sums_equal_diag_weighted(octagon1):
    # row sums of D - Delta equal D's diagonal since Laplacian rows vanish
    rng = np.random.default_rng(4)
    kappa, u = random_feasible_instance(octagon1, rng)
    J = jacobian_at(octagon1.mesh, kappa, u, octagon1.lengths).toarray()
    _, diag = weights_at(octagon1.mesh, kappa, u, octagon1.lengths)
    np.testing.assert_allclose(J.sum(axis=1), diag, atol=1e-13)
