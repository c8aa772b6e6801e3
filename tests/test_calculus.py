"""Graph calculus and the discrete elliptic-estimate harness, kept as test
references: the paper's lemma checks (acceptance criteria 8 and 9) and the
independent Laplacian that ``test_jacobian.py`` compares the Jacobian with.

A "graph" is anything with ``vertex_count`` and (E, 2) integer ``edges``; a
``SurfaceMesh`` qualifies, as does :class:`Graph`.  Multi-edges are distinct
entries; loops contribute nothing to gradients, divergences or Laplacians.
Flows are stored once per edge, in the stored direction a -> b.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from dcpm import jacobian, models, solver
from dcpm.jacobian import NotPositiveDefiniteError
from dcpm.mesh import isoperimetric_constant, vertex_components

from conftest import jacobian_at, weights_at


@dataclass(eq=False)
class Graph:
    """Bare multigraph with unchecked fields (a dataclass, not a NamedTuple,
    because ``jacobian.jacobian_plan`` caches its plan on the graph)."""

    vertex_count: int
    edges: np.ndarray


def gradient(graph, eta, f):
    """Weighted gradient flow: value on edge ab is eta_ab * (f_b - f_a)."""
    a, b = graph.edges[:, 0], graph.edges[:, 1]
    return eta * (f[b] - f[a])


def divergence(graph, x):
    """div(x)_i = sum over edges at i of the outgoing flow value."""
    div = np.zeros(graph.vertex_count)
    np.add.at(div, graph.edges[:, 0], x)
    np.subtract.at(div, graph.edges[:, 1], x)
    return div


def laplacian_apply(graph, eta, f):
    """Weighted Laplacian (Delta f)_i = sum_j eta_ij (f_j - f_i)."""
    return divergence(graph, gradient(graph, eta, f))


def laplacian_matrix(graph, eta):
    """Sparse symmetric negative semi-definite Laplacian matrix, by COO.

    Off-diagonal (i, j) holds eta_ij summed over parallel edges; loops drop
    out.  The diagonal is the negated row sum of the off-diagonal part, so
    rows sum to zero exactly for any checker that sums the off-diagonal
    entries the same way.
    """
    a, b = graph.edges[:, 0], graph.edges[:, 1]
    keep = a != b
    a, b, w = a[keep], b[keep], np.asarray(eta, dtype=float)[keep]
    n = graph.vertex_count
    off = sp.coo_matrix((np.concatenate([w, w]),
                         (np.concatenate([a, b]), np.concatenate([b, a]))),
                        shape=(n, n)).tocsr()
    diag = -np.asarray(off.sum(axis=1)).ravel()
    return (off + sp.diags(diag, format="csr")).tocsr()


@dataclass
class EllipticReport:
    """Outcome of :func:`elliptic_estimate_check` (diagnostic, not a proof)."""

    precondition_violations: list[str]
    solution_inf: float
    bound: float
    ratio: float
    second_solution_inf: float | None = None
    second_bound: float | None = None
    second_ratio: float | None = None

    @property
    def passed(self):
        ok = not self.precondition_violations and self.ratio <= 1.0
        if self.second_ratio is not None:
            ok = ok and self.second_ratio <= 1.0
        return ok


def elliptic_estimate_check(graph, lengths, eta, x, c1, c2, c3,
                            y=None, diag=None, c4=None):
    """Numerically probe the discrete elliptic estimate on a connected graph.

    Part 1 solves Delta_eta h = div(x) (mean-zero representative, since the
    solution is defined up to constants: the gauge is pinned at vertex 0 for
    the sparse solve, then h is re-centred) and compares |h|_inf against
    (4*c2*sqrt(c1+1)/c3) * |l| * |V|_l^(1/2).  Given ``y`` (with ``diag`` and
    ``c4``), part 2 solves (D - Delta_eta) w = div(x) + y and compares
    against (c4 + 8*c2*sqrt(c1+1)/c3) * |l| * |V|_l^(1/2).

    Both systems are built by ``jacobian.operator_matrix``, as Newton's are,
    and solved by ``solver.solve_linear_spd``, looked up on the module so that
    a patched solver sees the calls; a singular one raises its
    ``NotPositiveDefiniteError``.
    """
    lengths = np.asarray(lengths, dtype=float)
    eta = np.asarray(eta, dtype=float)
    x = np.asarray(x, dtype=float)
    violations = []
    if not (eta >= c3).all() or c3 <= 0:
        violations.append("edge weights below the lower bound c3")
    if (np.abs(x) > c2 * lengths ** 2 * (1 + 1e-12)).any():
        violations.append("flow exceeds c2 * l^2 on some edge")

    linf = float(np.max(np.abs(lengths)))
    area_half = float(np.sqrt((lengths ** 2).sum()))
    rhs = divergence(graph, x)
    # Delta_eta h = rhs is -Delta_eta h = -rhs, with h pinned to 0 at vertex 0
    h = np.zeros(graph.vertex_count)
    minus_laplacian = jacobian.operator_matrix(graph, eta, np.zeros_like(h))
    h[1:] = solver.solve_linear_spd(minus_laplacian[1:, 1:], -rhs[1:])[0]
    h -= h.mean()
    bound1 = 4.0 * c2 * np.sqrt(c1 + 1.0) / c3 * linf * area_half
    sol1 = float(np.max(np.abs(h)))
    report = EllipticReport(precondition_violations=violations,
                            solution_inf=sol1, bound=bound1,
                            ratio=sol1 / bound1 if bound1 > 0 else np.inf)

    if y is not None:
        y = np.asarray(y, dtype=float)
        diag = np.asarray(diag, dtype=float)
        if (diag < 0).any() or not diag.any():
            violations.append("diag must be nonnegative and nonzero")
        if (np.abs(y) > c4 * diag * linf * area_half * (1 + 1e-12)).any():
            violations.append("y exceeds c4 * D_ii * |l| * |V|_l^(1/2)")
        w = solver.solve_linear_spd(jacobian.operator_matrix(graph, eta, diag),
                                    rhs + y)[0]
        bound2 = (c4 + 8.0 * c2 * np.sqrt(c1 + 1.0) / c3) * linf * area_half
        report.second_solution_inf = float(np.max(np.abs(w)))
        report.second_bound = bound2
        report.second_ratio = (report.second_solution_inf / bound2
                               if bound2 > 0 else np.inf)
    return report


def path2():
    return Graph(2, np.array([[0, 1]]))


def cycle4():
    return Graph(4, np.array([[0, 1], [1, 2], [2, 3], [3, 0]]))


def star(k):
    return Graph(k + 1, np.array([[0, i + 1] for i in range(k)]))


def random_graph(rng, n, p=0.5):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    if not edges:
        edges = [(0, 1)]
    return Graph(n, np.array(edges))


# -- gradient / divergence / laplacian ---------------------------------------

def test_gradient_constant_function():
    g = cycle4()
    eta = np.ones(4)
    assert np.array_equal(gradient(g, eta, np.full(4, 3.7)), np.zeros(4))


def test_gradient_two_vertices():
    g = path2()
    x = gradient(g, np.ones(1), np.array([0.0, 1.0]))
    assert x[0] == 1.0


def test_gradient_antisymmetry_is_structural():
    # reversing an edge's stored direction negates the stored value
    rng = np.random.default_rng(0)
    g = cycle4()
    f = rng.normal(size=4)
    eta = np.abs(rng.normal(size=4)) + 0.1
    rev = Graph(4, g.edges[:, ::-1])
    np.testing.assert_array_equal(gradient(g, eta, f), -gradient(rev, eta, f))


def test_divergence_circulation():
    g = Graph(3, np.array([[0, 1], [1, 2], [2, 0]]))
    assert np.array_equal(divergence(g, np.ones(3)), np.zeros(3))


def test_divergence_star():
    g = star(5)
    div = divergence(g, np.ones(5))
    assert div[0] == 5.0
    assert np.all(div[1:] == -1.0)


def test_divergence_sums_to_zero():
    rng = np.random.default_rng(1)
    for _ in range(100):
        g = random_graph(rng, rng.integers(2, 10))
        x = rng.normal(size=len(g.edges))
        div = divergence(g, x)
        # the true total telescopes per edge; fsum of the +-x multiset is 0
        assert math.fsum(np.concatenate([x, -x])) == 0.0
        assert abs(div.sum()) <= 1e-13 * max(1.0, np.abs(x).sum())


def test_laplacian_path():
    g = path2()
    out = laplacian_apply(g, np.ones(1), np.array([0.0, 1.0]))
    np.testing.assert_array_equal(out, [1.0, -1.0])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_laplacian_is_div_grad(seed):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, int(rng.integers(2, 12)))
    eta = np.abs(rng.normal(size=len(g.edges))) + 0.01
    f = rng.normal(size=g.vertex_count)
    np.testing.assert_allclose(laplacian_apply(g, eta, f),
                               divergence(g, gradient(g, eta, f)), atol=1e-14)


def test_laplacian_matrix_two_vertices():
    L = laplacian_matrix(path2(), np.ones(1)).toarray()
    np.testing.assert_array_equal(L, [[-1.0, 1.0], [1.0, -1.0]])


def test_laplacian_matrix_matches_apply():
    rng = np.random.default_rng(2)
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(2, 12)))
        eta = np.abs(rng.normal(size=len(g.edges))) + 0.01
        f = rng.normal(size=g.vertex_count)
        L = laplacian_matrix(g, eta)
        np.testing.assert_allclose(L @ f, laplacian_apply(g, eta, f),
                                   atol=1e-13)
        # symmetric, rows sum to zero exactly by construction
        assert (abs(L - L.T) > 0).nnz == 0
        off = L - sp.diags(L.diagonal())
        assert np.all(np.asarray(off.sum(axis=1)).ravel() + L.diagonal() == 0.0)


def test_laplacian_negative_semidefinite():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(2, 13)))
        eta = np.abs(rng.normal(size=len(g.edges))) + 0.01
        evals = np.linalg.eigvalsh(laplacian_matrix(g, eta).toarray())
        assert evals.max() <= 1e-12


def test_dirichlet_form_identity():
    rng = np.random.default_rng(4)
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(2, 12)))
        eta = np.abs(rng.normal(size=len(g.edges))) + 0.01
        f = rng.normal(size=g.vertex_count)
        lhs = f @ laplacian_apply(g, eta, f)
        a, b = g.edges[:, 0], g.edges[:, 1]
        rhs = -np.sum(eta * (f[b] - f[a]) ** 2)
        assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(rhs)))
        assert lhs <= 1e-12


def test_loops_are_inert(octagon0):
    # level-0 skeleton has 4 loop edges; they contribute nothing
    mesh = octagon0.mesh
    eta = np.ones(mesh.edge_count)
    f = np.array([0.0, 1.0])
    x = gradient(mesh, eta, f)
    assert np.all(x[8:] == 0.0)
    L = laplacian_matrix(mesh, eta).toarray()
    np.testing.assert_array_equal(L, [[-8.0, 8.0], [8.0, -8.0]])


# -- isoperimetry ------------------------------------------------------------

def test_isoperimetric_cycle4():
    # the extremal subset is any 3 vertices: min(2, 2) / 2^2
    assert isoperimetric_constant(cycle4(), np.ones(4)) == pytest.approx(0.5)


def test_isoperimetric_single_edge():
    assert isoperimetric_constant(path2(), np.ones(1)) == 0.0


def test_isoperimetric_octagon_values(octagon0, octagon1):
    # the values `check --isoperimetric` reports, to the last bit
    assert isoperimetric_constant(octagon0.mesh, octagon0.lengths) == 0.0974378846673585
    assert isoperimetric_constant(octagon1.mesh, octagon1.lengths) == 0.1875000000000001


def test_isoperimetric_relabel_invariant():
    rng = np.random.default_rng(5)
    g = random_graph(rng, 7)
    while vertex_components(g.vertex_count, g.edges).any():
        g = random_graph(rng, 7)
    lengths = np.abs(rng.normal(size=len(g.edges))) + 0.1
    c = isoperimetric_constant(g, lengths)
    perm = rng.permutation(7)
    g2 = Graph(7, perm[g.edges])
    assert isoperimetric_constant(g2, lengths) == pytest.approx(c, rel=1e-12)


def oracle_isoperimetric(graph, lengths):
    """Independent subset-enumeration oracle (pure python)."""
    n = graph.vertex_count
    best = 0.0
    total = sum(float(l) ** 2 for l in lengths)
    for r in range(1, n):
        for subset in itertools.combinations(range(n), r):
            inside = set(subset)
            per = sum(float(l) for (a, b), l in zip(graph.edges, lengths)
                      if (a in inside) != (b in inside))
            area = sum(float(l) ** 2 for (a, b), l in zip(graph.edges, lengths)
                       if a in inside and b in inside)
            best = max(best, min(area, total - area) / per ** 2)
    return best


def test_isoperimetric_matches_oracle():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 30:
        g = random_graph(rng, int(rng.integers(2, 9)), p=0.45)
        if vertex_components(g.vertex_count, g.edges).any():
            continue
        lengths = np.abs(rng.normal(size=len(g.edges))) + 0.1
        assert isoperimetric_constant(g, lengths) == pytest.approx(
            oracle_isoperimetric(g, lengths), rel=1e-12)
        checked += 1


def test_isoperimetric_guards():
    with pytest.raises(ValueError, match="capped"):
        isoperimetric_constant(Graph(25, np.array([[i, i + 1] for i in range(24)])),
                               np.ones(24))
    with pytest.raises(ValueError, match="disconnected"):
        isoperimetric_constant(Graph(4, np.array([[0, 1], [2, 3]])), np.ones(2))
    # broadcasting used to give 0.0 for both (the 4-cycle's constant is 0.5)
    with pytest.raises(ValueError, match=r"^lengths must have shape \(E,\) = \(4,\)$"):
        isoperimetric_constant(cycle4(), np.ones(1))
    with pytest.raises(ValueError, match=r"^lengths must have shape \(E,\) = \(1,\)$"):
        isoperimetric_constant(path2(), np.ones(3))


# -- elliptic estimate harness ------------------------------------------------

def test_elliptic_zero_input(octagon1):
    mesh = octagon1.mesh
    E = mesh.edge_count
    c1 = isoperimetric_constant(mesh, octagon1.lengths)
    report = elliptic_estimate_check(
        mesh, octagon1.lengths, np.ones(E), np.zeros(E),
        c1, 1.0, 1.0,
        y=np.zeros(mesh.vertex_count), diag=np.ones(mesh.vertex_count), c4=1.0)
    assert report.passed
    assert report.solution_inf == 0.0
    assert report.ratio == 0.0
    assert report.second_ratio == 0.0


def test_elliptic_random_admissible(octagon1):
    mesh = octagon1.mesh
    lengths = octagon1.lengths
    c1 = isoperimetric_constant(mesh, lengths)
    rng = np.random.default_rng(6)
    c2, c3, c4 = 1.0, 0.5, 1.0
    linf = float(lengths.max())
    area_half = float(np.sqrt((lengths ** 2).sum()))
    for _ in range(25):
        eta = c3 + np.abs(rng.normal(size=mesh.edge_count))
        x = rng.uniform(-1, 1, mesh.edge_count) * c2 * lengths ** 2
        diag = np.abs(rng.normal(size=mesh.vertex_count)) + 0.1
        y = rng.uniform(-1, 1, mesh.vertex_count) * c4 * diag * linf * area_half
        report = elliptic_estimate_check(mesh, lengths, eta, x, c1, c2, c3,
                                         y=y, diag=diag, c4=c4)
        assert report.precondition_violations == []
        assert report.passed, (report.ratio, report.second_ratio)


def test_elliptic_flow_precondition_violation(octagon1):
    mesh = octagon1.mesh
    x = np.zeros(mesh.edge_count)
    x[0] = 2.0 * 1.0 * octagon1.lengths[0] ** 2   # |x| = 2*c2*l^2
    report = elliptic_estimate_check(mesh, octagon1.lengths,
                                     np.ones(mesh.edge_count), x,
                                     1.0, 1.0, 1.0)
    assert any("flow exceeds" in v for v in report.precondition_violations)
    assert not report.passed


def test_elliptic_weight_precondition_violation(octagon1):
    mesh = octagon1.mesh
    eta = np.ones(mesh.edge_count)
    eta[0] = 0.5
    report = elliptic_estimate_check(mesh, octagon1.lengths, eta,
                                     np.zeros(mesh.edge_count), 1.0, 1.0, 1.0)
    assert report.precondition_violations == [
        "edge weights below the lower bound c3"]
    assert not report.passed


def test_elliptic_source_precondition_violation(octagon1):
    mesh = octagon1.mesh
    V = mesh.vertex_count
    lengths = octagon1.lengths
    c4, diag = 1.0, np.ones(V)
    y = np.zeros(V)
    y[0] = 2.0 * c4 * float(lengths.max()) * float(np.sqrt((lengths ** 2).sum()))
    report = elliptic_estimate_check(mesh, lengths, np.ones(mesh.edge_count),
                                     np.zeros(mesh.edge_count), 1.0, 1.0, 1.0,
                                     y=y, diag=diag, c4=c4)
    assert report.precondition_violations == [
        "y exceeds c4 * D_ii * |l| * |V|_l^(1/2)"]
    assert report.second_ratio is not None
    assert not report.passed


def test_elliptic_guards():
    # eta = 0 leaves Delta = 0, singular even with the gauge pinned
    with pytest.raises(NotPositiveDefiniteError, match="^Factor is exactly singular$"):
        elliptic_estimate_check(path2(), np.ones(1), np.zeros(1), np.zeros(1),
                                1.0, 1.0, 1.0)
    # D = 0 leaves the Laplacian, whose LU factor is exactly singular here
    with pytest.raises(NotPositiveDefiniteError, match="^Factor is exactly singular$"):
        elliptic_estimate_check(path2(), np.ones(1), np.ones(1), np.zeros(1),
                                1.0, 1.0, 1.0, y=np.zeros(2),
                                diag=np.zeros(2), c4=1.0)


@pytest.mark.parametrize("part2, solves", [(False, 1), (True, 2)],
                         ids=["part-1", "parts-1-2"])
def test_elliptic_solves_through_the_factor_path(octagon1, factorizations,
                                                 part2, solves):
    mesh = octagon1.mesh
    V, E = mesh.vertex_count, mesh.edge_count
    x = np.random.default_rng(3).uniform(-1, 1, E) * octagon1.lengths ** 2
    extra = {"y": np.zeros(V), "diag": np.ones(V), "c4": 1.0} if part2 else {}
    elliptic_estimate_check(mesh, octagon1.lengths, np.ones(E), x, 1.0, 1.0, 1.0,
                            **extra)
    assert len(factorizations) == solves


def test_elliptic_part2_factors_the_newton_matrix(octagon1, monkeypatch):
    # with (eta, diag) from jacobian_weights, part 2 solves with the very
    # matrix that Newton factors at that point
    mesh, lengths = octagon1.mesh, octagon1.lengths
    kappa = models.dual_distance_kappa(mesh, 0.5)
    u = np.random.default_rng(2).normal(0.0, 0.05, mesh.vertex_count)
    eta, diag = weights_at(mesh, kappa, u, lengths)
    matrices, solve = [], solver.solve_linear_spd

    def capture(J, rhs):
        matrices.append(J)
        return solve(J, rhs)

    monkeypatch.setattr(solver, "solve_linear_spd", capture)
    elliptic_estimate_check(mesh, lengths, eta, np.zeros(mesh.edge_count),
                            1.0, 1.0, 1.0, y=np.ones(mesh.vertex_count),
                            diag=diag, c4=1.0)
    J = jacobian_at(mesh, kappa, u, lengths)
    assert len(matrices) == 2 and matrices[1].shape == J.shape
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(matrices[1], name), getattr(J, name))


def test_elliptic_mean_zero_representative(octagon1):
    mesh = octagon1.mesh
    rng = np.random.default_rng(7)
    x = rng.uniform(-1, 1, mesh.edge_count) * octagon1.lengths ** 2
    eta = np.ones(mesh.edge_count)
    report = elliptic_estimate_check(mesh, octagon1.lengths, eta, x,
                                     isoperimetric_constant(mesh, octagon1.lengths),
                                     1.0, 1.0)
    # recompute: solving and re-centering must reproduce solution_inf
    L = laplacian_matrix(mesh, eta).toarray()
    h, *_ = np.linalg.lstsq(L, divergence(mesh, x), rcond=None)
    h -= h.mean()
    assert report.solution_inf == pytest.approx(np.max(np.abs(h)), rel=1e-10)
