import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcpm import calculus, models
from dcpm.calculus import (Graph, divergence, elliptic_estimate_check, gradient,
                           isoperimetric_constant, laplacian_apply,
                           laplacian_matrix)
from dcpm.jacobian import NotPositiveDefiniteError

from conftest import jacobian_at, weights_at


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


def is_connected(graph):
    adj = [[] for _ in range(graph.vertex_count)]
    for a, b in graph.edges:
        adj[a].append(int(b))
        adj[b].append(int(a))
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == graph.vertex_count


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


@pytest.mark.parametrize("edges", [np.array([[0, 1, 2], [1, 2, 3]]), np.arange(4)],
                         ids=["2x3", "flat-4"])
def test_graph_takes_edge_pairs_only(edges):
    # a (2, 3) array used to be read as the three edges 0-1, 2-1 and 2-3
    with pytest.raises(ValueError, match=r"^edges must be an \(E, 2\) array"):
        Graph(4, edges)


@pytest.mark.parametrize("vertex_count, edges, message", [
    (3, [[-1, 1]], "^edge endpoint out of vertex range$"),
    (3, [[0, 5]], "^edge endpoint out of vertex range$"),
    (3, [[0.7, 1.2]], "^edges must be an integer array"),
    (3, np.empty((0, 2)), "^edges must be an integer array"),
    (3, [[0, 1], [2]], "^edges must be an integer array"),
    (2.5, [[0, 1]], "^vertex count must be an integer >= 0$"),
    (-1, np.empty((0, 2), dtype=int), "^vertex count must be an integer >= 0$"),
], ids=["endpoint-negative", "endpoint-past-count", "edges-float", "empty-float",
        "edges-ragged", "count-float", "count-negative"])
def test_graph_owns_count_kind_and_range(vertex_count, edges, message):
    # vertex -1 used to be read as vertex 2, vertex 5 ended in numpy's
    # IndexError, float endpoints were truncated and a count of 2.5 built
    with pytest.raises(ValueError, match=message):
        Graph(vertex_count, edges)


def test_graph_keeps_a_read_only_copy():
    edges = np.array([[0, 1], [1, 2]])
    g = Graph(np.int64(3), edges)
    edges[0, 0] = 2
    assert g.edges[0, 0] == 0 and not g.edges.flags.writeable
    assert Graph(0, np.empty((0, 2), dtype=int)).edges.shape == (0, 2)


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
        off = L - __import__("scipy.sparse", fromlist=["diags"]).diags(L.diagonal())
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
    while not is_connected(g):
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
        if not is_connected(g):
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


@pytest.mark.parametrize("given", [
    ("diag", "c4"), ("y",), ("y", "diag"), ("y", "c4"), ("diag",), ("c4",)])
def test_elliptic_part2_inputs_go_together(octagon1, given):
    # diag = 0 would make part 2 singular: ignoring it would pass silently
    mesh = octagon1.mesh
    V, E = mesh.vertex_count, mesh.edge_count
    part2 = {"y": np.zeros(V), "diag": np.zeros(V), "c4": 1.0}
    with pytest.raises(ValueError, match="^y, diag and c4 must be given together$"):
        elliptic_estimate_check(mesh, octagon1.lengths, np.ones(E), np.zeros(E),
                                1.0, 1.0, 1.0, **{k: part2[k] for k in given})


def test_elliptic_guards():
    with pytest.raises(ValueError, match="disconnected"):
        elliptic_estimate_check(Graph(4, np.array([[0, 1], [2, 3]])),
                                np.ones(2), np.ones(2), np.zeros(2),
                                1.0, 1.0, 1.0)
    # connectivity is checked before the lengths are read: no edge lengths
    # used to end in numpy's zero-size reduction error
    with pytest.raises(ValueError, match="disconnected"):
        elliptic_estimate_check(Graph(2, np.empty((0, 2), dtype=int)),
                                np.empty(0), np.empty(0), np.empty(0),
                                1.0, 1.0, 1.0)
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
    matrices, solve = [], calculus.solve_linear_spd

    def capture(J, rhs):
        matrices.append(J)
        return solve(J, rhs)

    monkeypatch.setattr(calculus, "solve_linear_spd", capture)
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
    from dcpm.calculus import laplacian_matrix as lm
    L = lm(mesh, eta).toarray()
    h, *_ = np.linalg.lstsq(L, divergence(mesh, x), rcond=None)
    h -= h.mean()
    assert report.solution_inf == pytest.approx(np.max(np.abs(h)), rel=1e-10)
