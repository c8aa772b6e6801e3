"""Discrete calculus on graphs: gradients, flows, divergence, weighted
Laplacians, isoperimetric quantities, and a numeric harness for the discrete
elliptic estimate.

A "graph" here is anything with ``vertex_count`` and an ``edges`` (E, 2)
array of endpoint vertex ids; :class:`~dcpm.mesh.SurfaceMesh` qualifies, as
does the lightweight :class:`Graph`.  Multi-edges are distinct entries;
loops contribute nothing to gradients, divergences or Laplacians.

Flows are stored once per edge, in the stored direction a -> b; reading the
reverse direction negates the value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .mesh import vertex_components

if TYPE_CHECKING:
    import scipy.sparse as sp

ISOPERIMETRIC_VERTEX_CAP = 24
ISOPERIMETRIC_CHUNK = 1 << 18


@dataclass(eq=False)
class Graph:
    """Bare multigraph for standalone graph-calculus use."""

    vertex_count: int
    edges: np.ndarray

    def __post_init__(self):
        self.edges = np.ascontiguousarray(self.edges, dtype=np.int64).reshape(-1, 2)


def gradient(graph, eta: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Weighted gradient flow: value on edge ab is eta_ab * (f_b - f_a)."""
    a, b = graph.edges[:, 0], graph.edges[:, 1]
    return eta * (f[b] - f[a])


def divergence(graph, x: np.ndarray) -> np.ndarray:
    """div(x)_i = sum over edges at i of the outgoing flow value."""
    div = np.zeros(graph.vertex_count)
    np.add.at(div, graph.edges[:, 0], x)
    np.subtract.at(div, graph.edges[:, 1], x)
    return div


def laplacian_apply(graph, eta: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Weighted Laplacian (Delta f)_i = sum_j eta_ij (f_j - f_i)."""
    return divergence(graph, gradient(graph, eta, f))


def laplacian_matrix(graph, eta: np.ndarray) -> sp.csr_matrix:
    """Sparse symmetric negative semi-definite Laplacian matrix.

    Off-diagonal (i, j) holds eta_ij summed over parallel edges; loops drop
    out.  The diagonal is the negated row sum of the off-diagonal part, so
    rows sum to zero exactly (in floating point) for any checker that sums
    the off-diagonal entries the same way.
    """
    import scipy.sparse as sp

    a, b = graph.edges[:, 0], graph.edges[:, 1]
    keep = a != b
    a, b, w = a[keep], b[keep], np.asarray(eta, dtype=float)[keep]
    n = graph.vertex_count
    off = sp.coo_matrix((np.concatenate([w, w]),
                         (np.concatenate([a, b]), np.concatenate([b, a]))),
                        shape=(n, n)).tocsr()
    diag = -np.asarray(off.sum(axis=1)).ravel()
    return (off + sp.diags(diag, format="csr")).tocsr()


def _require_connected(graph) -> None:
    if vertex_components(graph.vertex_count, graph.edges).any():
        raise ValueError("graph is disconnected")


def isoperimetric_constant(graph, lengths: np.ndarray) -> float:
    """Smallest C with min{|V0|, |V|-|V0|} <= C*|boundary V0|^2 for all V0.

    |boundary V0| sums the lengths of edges with exactly one endpoint in V0,
    |V0| the squared lengths of edges with both endpoints in V0, and |V| all
    squared lengths.  Exhaustive over all proper nonempty vertex subsets;
    exact but exponential, so capped at ``ISOPERIMETRIC_VERTEX_CAP`` vertices.
    """
    n = graph.vertex_count
    if n > ISOPERIMETRIC_VERTEX_CAP:
        raise ValueError(
            f"isoperimetric enumeration capped at {ISOPERIMETRIC_VERTEX_CAP} "
            f"vertices (got {n})")
    _require_connected(graph)
    lengths = np.asarray(lengths, dtype=float)
    total = float((lengths ** 2).sum())
    a, b = graph.edges[:, 0], graph.edges[:, 1]
    l1, l2 = lengths, lengths ** 2

    best = 0.0
    for start in range(1, (1 << n) - 1, ISOPERIMETRIC_CHUNK):
        stop = min(start + ISOPERIMETRIC_CHUNK, (1 << n) - 1)
        # row i: the vertex set of mask start + i; np.take keeps rows C-ordered
        inside = ((np.arange(start, stop)[:, None] >> np.arange(n)) & 1).astype(bool)
        a_in, b_in = np.take(inside, a, axis=1), np.take(inside, b, axis=1)
        perim = ((a_in ^ b_in) * l1).sum(axis=1)
        area = ((a_in & b_in) * l2).sum(axis=1)
        ratio = np.minimum(area, total - area) / perim ** 2
        best = max(best, float(ratio.max()))
    return best


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
    def passed(self) -> bool:
        ok = not self.precondition_violations and self.ratio <= 1.0
        if self.second_ratio is not None:
            ok = ok and self.second_ratio <= 1.0
        return ok


def elliptic_estimate_check(graph, lengths: np.ndarray, eta: np.ndarray,
                            x: np.ndarray, c1: float, c2: float, c3: float,
                            y: np.ndarray | None = None,
                            diag: np.ndarray | None = None,
                            c4: float | None = None) -> EllipticReport:
    """Numerically probe the discrete elliptic estimate.

    Part 1 solves Delta_eta h = div(x) (mean-zero representative, since the
    solution is defined up to constants: the gauge is pinned at vertex 0 for
    the sparse solve, then h is re-centred) and compares |h|_inf against
    (4*c2*sqrt(c1+1)/c3) * |l| * |V|_l^(1/2).  If ``y``, ``diag`` and ``c4``
    are given (all three or none), part 2 solves (D - Delta_eta) w =
    div(x) + y and compares against (c4 + 8*c2*sqrt(c1+1)/c3) * |l| *
    |V|_l^(1/2).

    Raises ``ValueError`` on a disconnected graph or when only some of the
    part-2 inputs are given, and ``numpy.linalg.LinAlgError`` when a system
    is singular.
    """
    if len({y is None, diag is None, c4 is None}) > 1:
        raise ValueError("y, diag and c4 must be given together")
    lengths = np.asarray(lengths, dtype=float)
    eta = np.asarray(eta, dtype=float)
    x = np.asarray(x, dtype=float)
    violations: list[str] = []
    if not (eta >= c3).all() or c3 <= 0:
        violations.append("edge weights below the lower bound c3")
    if (np.abs(x) > c2 * lengths ** 2 * (1 + 1e-12)).any():
        violations.append("flow exceeds c2 * l^2 on some edge")

    linf = float(np.max(np.abs(lengths)))
    area_half = float(np.sqrt((lengths ** 2).sum()))
    rhs = divergence(graph, x)
    _require_connected(graph)

    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    L = laplacian_matrix(graph, eta).tocsc()
    h = np.zeros(graph.vertex_count)
    try:
        h[1:] = splu(L[1:, 1:]).solve(rhs[1:])
    except RuntimeError:
        raise np.linalg.LinAlgError("singular system (Delta)") from None
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
        try:
            w = splu((sp.diags(diag) - L).tocsc()).solve(rhs + y)
        except RuntimeError:
            raise np.linalg.LinAlgError("singular system (D - Delta)") from None
        bound2 = (c4 + 8.0 * c2 * np.sqrt(c1 + 1.0) / c3) * linf * area_half
        report.second_solution_inf = float(np.max(np.abs(w)))
        report.second_bound = bound2
        report.second_ratio = (report.second_solution_inf / bound2
                               if bound2 > 0 else np.inf)
    return report
