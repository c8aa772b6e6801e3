from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcpm.calculus import laplacian_matrix
from dcpm.geometry import evaluate_point, model_length, scale_lengths, triangle_angles
from dcpm.jacobian import (NotPositiveDefiniteError, jacobian_plan,
                           jacobian_weights, lambda_factor, tilde_theta)

from conftest import (fd_jacobian, jacobian_at, needle_lengths, pinched,
                      random_feasible_instance, reversed_spokes, weights_at)

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
    mesh = reversed_spokes(octagon0)
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


def test_cotangent_singularity_raised(octagon0):
    # feasible needle faces whose rounded angle sums exceed pi: a half angle
    # falls below the default tolerance, and the Jacobian has no direction
    lengths = needle_lengths(octagon0)
    with pytest.raises(NotPositiveDefiniteError, match="half angle"):
        jacobian_at(octagon0.mesh, np.full(8, -1.0), np.zeros(2), lengths)


def test_jacobian_row_sums_equal_diag_weighted(octagon1):
    # row sums of D - Delta equal D's diagonal since Laplacian rows vanish
    rng = np.random.default_rng(4)
    kappa, u = random_feasible_instance(octagon1, rng)
    J = jacobian_at(octagon1.mesh, kappa, u, octagon1.lengths).toarray()
    _, diag = weights_at(octagon1.mesh, kappa, u, octagon1.lengths)
    np.testing.assert_allclose(J.sum(axis=1), diag, atol=1e-13)


# -- bit-identity pins ----------------------------------------------------------
# References in the np.roll and last-axis-sum forms that the kernels replaced,
# the weights scattered over face_edges and edges[face_edges] as they were
# before SurfaceMesh held edge_slots and slot_ends, and the CSC matrix built by
# the constructor, as assembly did before it copied the plan's pattern; the
# kernels and assembly must give the same bits.

def tilde_theta_ref(angles):
    angles = np.asarray(angles, dtype=float)
    total = angles.sum(axis=-1, keepdims=True)
    return 0.5 * (np.pi + 2.0 * angles - total)


def jacobian_weights_ref(mesh, kappa, scaled, angles):
    tilde = tilde_theta_ref(angles)
    lam = lambda_factor(kappa[:, None], scaled[mesh.face_edges])
    cot_opp = np.roll(np.cos(tilde) / np.sin(tilde), 1, axis=1)
    eta = np.bincount(mesh.face_edges.ravel(),
                      weights=(0.5 * cot_opp * (1.0 - lam)).ravel(),
                      minlength=mesh.edge_count)
    dcontrib = (cot_opp * lam).ravel()
    edge_ends = mesh.edges[mesh.face_edges.ravel()]
    diag = np.bincount(edge_ends.T.ravel(), weights=np.tile(dcontrib, 2),
                       minlength=mesh.vertex_count)
    return eta, diag


def jacobian_ref(mesh, kappa, scaled, angles):
    import scipy.sparse as sp

    eta, diag = jacobian_weights_ref(mesh, kappa, scaled, angles)
    plan = jacobian_plan(mesh)
    w = eta[plan.keep]
    data = np.bincount(plan.slot, weights=np.concatenate([-w, -w, w, w, diag]),
                       minlength=plan.pattern.nnz)
    n = mesh.vertex_count
    return sp.csc_matrix((data, plan.pattern.indices, plan.pattern.indptr),
                         shape=(n, n))


def assert_same_csc(J, ref):
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(J, name), getattr(ref, name)), name
    assert J.shape == ref.shape and J.format == "csc"


def evaluated(m, seed):
    """kappa, scaled lengths and the evaluated point of a random feasible
    instance; the point's slot lengths are the scaled lengths per slot."""
    kappa, u = random_feasible_instance(m, np.random.default_rng(seed))
    scaled = scale_lengths(m.mesh, u, m.lengths)
    point = evaluate_point(m.mesh, kappa, u, m.lengths, False)
    assert np.array_equal(point.slot_lengths, scaled[m.mesh.face_edges])
    return kappa, scaled, point


# the (3,) and (2, 3) shapes of the angle tests
@pytest.mark.parametrize("angles", [
    [EQUILATERAL_H1_ANGLE] * 3, [0.3, 0.5, 1.2],
    [[0.3, 0.5, 1.2], [1e-9, 2e-9, 3.1]]])
def test_tilde_theta_matches_reference_on_small_shapes(angles):
    assert np.array_equal(tilde_theta(np.array(angles)),
                          tilde_theta_ref(np.array(angles)))


# octagon levels 0-3, parallel spokes stored in both directions, and a mesh
# whose vertices 10 and 20 each have a link of two cycles
WEIGHTED_MESHES = {
    **{f"octagon{k}": lambda levels, k=k: levels[k] for k in range(4)},
    "reversed": lambda levels: replace(levels[0], mesh=reversed_spokes(levels[0])),
    "pinched": lambda levels: replace(levels[2], mesh=pinched(levels[2])),
}


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(list(WEIGHTED_MESHES)), st.integers(0, 2**32 - 1))
def test_weights_and_assembly_match_reference(octagon_levels, name, seed):
    from dcpm.jacobian import assemble_jacobian

    m = WEIGHTED_MESHES[name](octagon_levels)
    kappa, scaled, point = evaluated(m, seed)
    angles = point.angles
    assert np.array_equal(tilde_theta(angles), tilde_theta_ref(angles))
    for got, want in zip(jacobian_weights(m.mesh, kappa, point),
                         jacobian_weights_ref(m.mesh, kappa, scaled, angles)):
        assert np.array_equal(got, want)
    assert_same_csc(assemble_jacobian(m.mesh, kappa, point),
                    jacobian_ref(m.mesh, kappa, scaled, angles))


def test_assemblies_own_their_values(octagon2):
    # each call copies the plan's pattern and gives the copy its own data
    from dcpm.jacobian import assemble_jacobian

    m = octagon2
    plan = jacobian_plan(m.mesh)
    pattern_data = plan.pattern.data.copy()
    kappa, scaled, point = evaluated(m, 7)
    J1, J2 = (assemble_jacobian(m.mesh, kappa, point) for _ in range(2))
    ref = jacobian_ref(m.mesh, kappa, scaled, point.angles)
    assert J1 is not J2 and plan.pattern is not J1 and plan.pattern is not J2
    assert not np.shares_memory(J1.data, J2.data)
    for J in (J1, J2):
        assert not np.shares_memory(J.data, plan.pattern.data)
        assert_same_csc(J, ref)
    J1.data[:] = -1.0
    assert_same_csc(J2, ref)
    assert np.array_equal(plan.pattern.data, pattern_data)
