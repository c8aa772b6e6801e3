"""Acceptance suite: one pass/fail line per criterion, pinned tolerances.

Each test prints its verdict on the terminal (bypassing capture) so a plain
``pytest tests/test_acceptance.py`` run shows the ten criterion lines.
"""

import math
import time

import numpy as np
import pytest

from dcpm.geometry import (corner_angles, discrete_curvature, evaluate_point,
                           gauss_bonnet_residual, acuteness_margin,
                           triangle_angles)
from dcpm.jacobian import lambda_factor, tilde_theta
from dcpm.mesh import isoperimetric_constant, vertex_components
from dcpm.models import convergence_study, octagon_fixture
from dcpm.solver import (ContinuationConfig, SolveConfig, continuation_solve,
                         newton_solve)

from conftest import fd_jacobian, jacobian_at, random_feasible_instance, weights_at
from test_calculus import (divergence, elliptic_estimate_check, gradient,
                           laplacian_apply, laplacian_matrix,
                           oracle_isoperimetric, random_graph)


def report(capsys, name, ok):
    with capsys.disabled():
        print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_01_jacobian_matches_finite_differences(octagon_levels, capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    count = 0
    for level in (0, 1, 2):
        m = octagon_levels[level]
        for _ in range(7):
            kappa, u = random_feasible_instance(m, rng)
            J = jacobian_at(m.mesh, kappa, u, m.lengths).toarray()
            J_fd = fd_jacobian(m.mesh, kappa, u, m.lengths, h=1e-6)
            worst = max(worst, np.max(np.abs(J - J_fd)) / np.max(np.abs(J)))
            count += 1
    elapsed = time.perf_counter() - t0
    report(capsys, "criterion 1 jacobian vs finite differences",
           count >= 20 and worst <= 1e-6 and elapsed < 30.0)


def test_02_jacobian_structure(octagon_levels, capsys):
    rng = np.random.default_rng(102)
    ok = True
    # symmetry and exact Laplacian row sums on random feasible instances
    for level in (0, 1, 2):
        m = octagon_levels[level]
        for _ in range(5):
            kappa, u = random_feasible_instance(m, rng)
            J = jacobian_at(m.mesh, kappa, u, m.lengths).toarray()
            ok = ok and np.max(np.abs(J - J.T)) <= 1e-12
            # rows sum to zero exactly when summed the way assembly does:
            # off-diagonal row sums plus the (negated) diagonal
            eta, _ = weights_at(m.mesh, kappa, u, m.lengths)
            L = laplacian_matrix(m.mesh, eta)
            import scipy.sparse as sp
            off = L - sp.diags(L.diagonal())
            row = np.asarray(off.sum(axis=1)).ravel() + L.diagonal()
            ok = ok and np.all(row == 0.0)
    # positive definiteness on acute instances (margin >= 0.05)
    acute = [(octagon_levels[0], octagon_levels[0].lengths)]
    for level in (1, 2):
        m = octagon_levels[level]
        acute.append((m, np.full(m.mesh.edge_count, 0.4)))   # equilateral
    for m, lengths in acute:
        kappa = np.full(m.mesh.face_count, -1.0)
        ok = ok and m.mesh.vertex_count <= 200
        ok = ok and acuteness_margin(corner_angles(
            m.mesh, kappa, lengths[m.mesh.face_edges])) >= 0.05
        J = jacobian_at(m.mesh, kappa, np.zeros(m.mesh.vertex_count), lengths)
        ok = ok and np.linalg.eigvalsh(J.toarray()).min() > 0.0
    report(capsys, "criterion 2 jacobian structure", ok)


def test_03_gauss_bonnet(octagon_levels, capsys):
    rng = np.random.default_rng(103)
    ok = True
    for level in (0, 1, 2, 3):
        m = octagon_levels[level]
        for _ in range(10):
            kappa, u = random_feasible_instance(m, rng)
            resid = gauss_bonnet_residual(
                m.mesh, evaluate_point(m.mesh, kappa, u, m.lengths).angles)
            ok = ok and abs(resid) <= 1e-9 * m.mesh.face_count
    report(capsys, "criterion 3 gauss-bonnet", ok)


def test_04_newton_solve_level2(octagon_levels, capsys):
    m = octagon_levels[2]
    kappa = np.full(m.mesh.face_count, -1.0)
    t0 = time.perf_counter()
    result = newton_solve(m.mesh, kappa, m.lengths)
    elapsed = time.perf_counter() - t0
    K = discrete_curvature(m.mesh, kappa, result.u, m.lengths)
    report(capsys, "criterion 4 newton solve level 2",
           result.converged and np.max(np.abs(K)) <= 1e-10
           and result.iterations <= 25 and elapsed < 10.0)


def test_05_uniqueness_probe(octagon_levels, capsys):
    rng = np.random.default_rng(105)
    ok = True
    for level in (0, 1, 2):
        m = octagon_levels[level]
        kappa = np.full(m.mesh.face_count, -1.1)
        solutions = []
        for _ in range(5):
            u0 = rng.uniform(-0.1, 0.1, m.mesh.vertex_count)
            result = newton_solve(m.mesh, kappa, m.lengths,
                                  SolveConfig(initial_u=u0))
            ok = ok and result.converged
            solutions.append(result.u)
        for i in range(5):
            for j in range(i + 1, 5):
                ok = ok and np.max(np.abs(solutions[i] - solutions[j])) <= 1e-8
    report(capsys, "criterion 5 uniqueness across starts", ok)


def test_06_convergence_rate(capsys):
    t0 = time.perf_counter()
    rows = convergence_study(5)          # levels 0..4
    elapsed = time.perf_counter() - t0
    ok = all(r.converged for r in rows)
    ratios = [r.error_inf / r.max_len for r in rows[2:]]
    ok = ok and max(ratios) <= 3.0 * min(ratios)
    drops = [rows[k + 1].error_inf / rows[k].error_inf for k in (2, 3)]
    ok = ok and all(0.3 <= d <= 0.8 for d in drops)
    ok = ok and elapsed < 300.0
    report(capsys, "criterion 6 convergence rate O(max length)", ok)


def test_07_method_agreement(octagon_levels, capsys):
    m = octagon_levels[1]
    kappa = np.full(m.mesh.face_count, -1.0)
    newton = newton_solve(m.mesh, kappa, m.lengths)
    cont = continuation_solve(
        m.mesh, kappa, m.lengths, np.zeros(m.mesh.vertex_count),
        ContinuationConfig(steps=1000, newton_polish=False))
    ok = newton.converged
    ok = ok and np.max(np.abs(cont.u - newton.u)) <= 1e-6
    ok = ok and len(cont.checkpoint_log) == 3
    ok = ok and all(d <= 1e-6 for _, _, d in cont.checkpoint_log)
    report(capsys, "criterion 7 continuation agrees with newton", ok)


def test_08_discrete_calculus(capsys):
    rng = np.random.default_rng(108)
    ok = True
    # 1000 random flows: contribution multiset sums to zero exactly
    for _ in range(1000):
        g = random_graph(rng, int(rng.integers(2, 12)))
        x = rng.normal(size=len(g.edges))
        ok = ok and math.fsum(np.concatenate([x, -x])) == 0.0
        div = divergence(g, x)
        ok = ok and abs(div.sum()) <= 1e-12 * max(1.0, np.abs(x).sum())
    # laplacian = div o grad to 1e-14
    for _ in range(100):
        g = random_graph(rng, int(rng.integers(2, 12)))
        eta = np.abs(rng.normal(size=len(g.edges))) + 0.01
        f = rng.normal(size=g.vertex_count)
        diff = laplacian_apply(g, eta, f) - divergence(g, gradient(g, eta, f))
        ok = ok and np.max(np.abs(diff)) <= 1e-14
    # isoperimetric constant equals the enumeration oracle, n <= 8
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 40:
        g = random_graph(rng, int(rng.integers(2, 9)), p=0.45)
        if vertex_components(g.vertex_count, g.edges).any():
            continue
        lengths = np.abs(rng.normal(size=len(g.edges))) + 0.1
        got = isoperimetric_constant(g, lengths)
        want = oracle_isoperimetric(g, lengths)
        ok = ok and abs(got - want) <= 1e-12 * max(1.0, want)
        checked += 1
    report(capsys, "criterion 8 discrete calculus", ok)


def test_09_elliptic_estimate_harness(octagon_levels, capsys):
    rng = np.random.default_rng(109)
    ok = True
    skeletons = [octagon_levels[0], octagon_levels[1]]
    for m in skeletons:
        mesh, lengths = m.mesh, m.lengths
        c1 = isoperimetric_constant(mesh, lengths)
        c2, c3, c4 = 1.0, 0.5, 1.0
        linf = float(lengths.max())
        area_half = float(np.sqrt((lengths ** 2).sum()))
        for _ in range(50):
            eta = c3 + np.abs(rng.normal(size=mesh.edge_count))
            x = rng.uniform(-1, 1, mesh.edge_count) * c2 * lengths ** 2
            diag = np.abs(rng.normal(size=mesh.vertex_count)) + 0.1
            y = (rng.uniform(-1, 1, mesh.vertex_count)
                 * c4 * diag * linf * area_half)
            rep = elliptic_estimate_check(mesh, lengths, eta, x, c1, c2, c3,
                                          y=y, diag=diag, c4=c4)
            ok = ok and rep.precondition_violations == []
            ok = ok and rep.ratio <= 1.0 and rep.second_ratio <= 1.0
    report(capsys, "criterion 9 elliptic estimate harness", ok)


def test_10_lambda_theta_identities(capsys):
    rng = np.random.default_rng(110)
    kappa = rng.uniform(-5.0, -0.05, 100000)
    lengths = np.exp(rng.uniform(-4, 2, 100000))
    H = 2.0 * np.arcsinh(0.5 * (-kappa) * lengths)
    lam_err = np.max(np.abs(lambda_factor(kappa, lengths)
                            - np.tanh(H / 2.0) ** 2))
    ok = lam_err <= 1e-14
    # Euclidean limit: tilde theta approaches theta monotonically
    base = np.array([1.0, 1.3, 0.8])
    defects = []
    for k in range(1, 7):
        ang = triangle_angles(base * 10.0 ** -k)
        defects.append(np.max(np.abs(tilde_theta(ang) - ang)))
    ok = ok and all(b < a for a, b in zip(defects, defects[1:]))
    ok = ok and defects[-1] < 1e-10
    report(capsys, "criterion 10 lambda and half-angle identities", ok)
