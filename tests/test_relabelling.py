"""Relabelling and orientation: how a mesh is stored does not change its
topology verdict, its Jacobian (up to the vertex permutation) or its
conformal factor.

The index layer pairs face slots, edges and vertices through arrays such as
``SurfaceMesh.edge_slots`` and ``slot_ends``.  Pinned against oracles on the
octagon's own array order, an error in those orders could still agree; the
uniqueness of ``u`` makes the answer independent of labels, so every
relabelling of a mesh must give the same answer.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dcpm.mesh import SurfaceMesh, validate_topology
from dcpm.solver import SolveConfig, newton_solve

from conftest import jacobian_at, pinched, reversed_spokes

# octagon levels 0-3, parallel spokes stored in both directions, and a mesh
# that is not a surface (two link cycles at vertices 10 and 20)
RELABEL_MESHES = {
    **{f"octagon{k}": lambda levels, k=k: (levels[k].mesh, levels[k].lengths)
       for k in range(4)},
    "reversed": lambda levels: (reversed_spokes(levels[0]), levels[0].lengths),
    "pinched": lambda levels: (pinched(levels[2]), levels[2].lengths),
}


def relabelled(mesh, rng, reverse=False):
    """``mesh`` stored in a random order: vertex v becomes ``pv[v]``, edge e
    becomes ``pe[e]`` (walked the other way where a coin says so), face f
    becomes ``pf[f]`` with its slots rotated by a random 0-2 places, and with
    ``reverse`` every face walks its cycle backwards.  Returns the mesh and
    ``(pv, pe, pf)``."""
    V, E, F = mesh.vertex_count, mesh.edge_count, mesh.face_count
    pv, pe, pf = rng.permutation(V), rng.permutation(E), rng.permutation(F)
    flip = rng.random(E) < 0.5
    edges = np.where(flip[:, None], mesh.edges[:, ::-1], mesh.edges)
    turn = (np.arange(3) + rng.integers(0, 3, F)[:, None]) % 3
    face_edges = np.take_along_axis(mesh.face_edges, turn, axis=1)
    signs = np.take_along_axis(mesh.face_signs, turn, axis=1)
    signs = np.where(flip[face_edges], -signs, signs)
    if reverse:
        face_edges, signs = face_edges[:, ::-1], -signs[:, ::-1]
    new_edges, new_face_edges, new_signs = (np.empty_like(edges),
                                            np.empty_like(face_edges),
                                            np.empty_like(signs))
    new_edges[pe] = pv[edges]
    new_face_edges[pf] = pe[face_edges]
    new_signs[pf] = signs
    edge_ids, face_ids = np.empty(E, np.int64), np.empty(F, np.int64)
    edge_ids[pe], face_ids[pf] = mesh.edge_ids, mesh.face_ids
    return (SurfaceMesh(V, new_edges, new_face_edges, new_signs, edge_ids, face_ids),
            (pv, pe, pf))


def moved(values, perm):
    """``values`` indexed by the new labels: ``out[perm[i]] = values[i]``."""
    out = np.empty_like(values)
    out[perm] = values
    return out


def verdict(mesh):
    report = validate_topology(mesh)
    return (report.solver_eligible, len(report.violations), report.is_simplicial,
            report.max_vertex_degree)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(list(RELABEL_MESHES)), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_relabelling_keeps_verdict_jacobian_and_solution(octagon_levels, name,
                                                         reverse, seed):
    mesh, lengths = RELABEL_MESHES[name](octagon_levels)
    rng = np.random.default_rng(seed)
    kappa = rng.uniform(-2.0, -0.5, mesh.face_count)
    u0 = rng.uniform(-0.1, 0.1, mesh.vertex_count)
    twin, (pv, pe, pf) = relabelled(mesh, rng, reverse)
    twin_kappa, twin_lengths, twin_u0 = (moved(kappa, pf), moved(lengths, pe),
                                         moved(u0, pv))

    expected = verdict(mesh)
    assert verdict(twin) == expected

    J = jacobian_at(mesh, kappa, u0, lengths).toarray()
    twin_J = jacobian_at(twin, twin_kappa, twin_u0, twin_lengths).toarray()
    assert np.abs(twin_J[np.ix_(pv, pv)] - J).max() <= 1e-14 * np.abs(J).max()

    # one face walked backwards, alone, is an orientation defect
    face = rng.integers(twin.face_count)
    fe, fs = twin.face_edges.copy(), twin.face_signs.copy()
    fe[face], fs[face] = fe[face, ::-1], -fs[face, ::-1]
    report = validate_topology(SurfaceMesh(twin.vertex_count, twin.edges, fe, fs,
                                           twin.edge_ids, twin.face_ids))
    assert any("orientation defect" in v for v in report.violations)
    assert not report.solver_eligible

    if not expected[0]:  # not solver eligible
        return
    result = newton_solve(mesh, kappa, lengths, SolveConfig(initial_u=u0))
    twin_result = newton_solve(twin, twin_kappa, twin_lengths,
                               SolveConfig(initial_u=twin_u0))
    assert result.converged and twin_result.converged
    assert twin_result.iterations == result.iterations
    assert np.abs(twin_result.u[pv] - result.u).max() <= 1e-12
