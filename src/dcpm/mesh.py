"""Closed oriented triangulated surfaces, stored as delta-complexes.

A mesh is purely combinatorial: integer vertex ids, an explicit edge list
(multi-edges and loops allowed), and oriented faces given as three directed
edges chaining head-to-tail.  No coordinates are ever stored; all geometry
lives in a separate per-edge length vector.

Both text formats, a mesh file and a curvature file with one line per face,
are line oriented: '#' starts a comment, and lines left blank are skipped::

    DCPM 1
    v <vertex_count>
    e <edge_id> <vertex_a> <vertex_b> <length>
    f <face_id> <±edge_id> <±edge_id> <±edge_id>

    k <face_id> <value>

Signed edge ids in ``f`` lines give the traversal direction: ``+`` walks the
edge a→b, ``-`` walks it b→a.  A face may only reference edges on earlier lines.
Numbers are ASCII: a token with a ``_`` or a non-ASCII character is rejected.
A number may carry one leading sign; in an ``f`` reference the first sign is
the direction, so ``+-3`` walks edge -3 a→b and ``--3`` walks it b→a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

MAGIC = "DCPM 1"


class MeshError(Exception):
    """Invalid mesh file or mesh combinatorics."""


@dataclass(eq=False)
class SurfaceMesh:
    """Combinatorial closed oriented triangulated surface.

    Attributes
    ----------
    vertex_count : int
        Vertices are the integers ``0 .. vertex_count-1``; an integer > 0.
    edges : (E, 2) int array
        Endpoint vertices of each edge; loops (``a == b``) are allowed.
    face_edges : (F, 3) int array
        Edge *indices* (positions in ``edges``) of each oriented face.
    face_signs : (F, 3) int array
        +1 if the face walks the edge a→b, -1 for b→a.
    edge_ids, face_ids : (E,), (F,) int arrays
        External ids, preserved from the input file; dump_mesh needs them distinct.
    edge_slots : (E, 2) int array
        The two face slots (``3 * face + slot``, increasing) holding each edge.
    slot_ends : (2, F, 3) int array
        ``slot_ends[j, f, s] = edges[face_edges[f, s], j]``: each slot's edge ends.

    The corner at slot ``s`` of a face is the tail vertex of its ``s``-th
    directed edge; the three directed edges must chain head-to-tail.
    Instances are immutable after construction and safe to share.
    """

    vertex_count: int
    edges: np.ndarray
    face_edges: np.ndarray
    face_signs: np.ndarray
    edge_ids: np.ndarray
    face_ids: np.ndarray
    face_corners: np.ndarray = field(init=False)
    edge_slots: np.ndarray = field(init=False)
    slot_ends: np.ndarray = field(init=False)

    def __post_init__(self):
        if not len(self.face_edges):
            raise MeshError("mesh has no faces")
        if not (isinstance(self.vertex_count, Integral) and self.vertex_count > 0):
            raise MeshError("vertex count must be an integer > 0")
        names = ("edges", "face_edges", "face_signs", "edge_ids", "face_ids")
        try:  # integers and booleans only: a float or complex array is refused
            for name in names:
                setattr(self, name, np.asarray(getattr(self, name)).astype(
                    np.int64, order="C", casting="same_kind"))
        except (TypeError, ValueError) as exc:
            raise MeshError(f"mesh arrays must be integer arrays: {exc}") from None
        E, F = self.edges.shape[:1], self.face_edges.shape[:1]
        if [getattr(self, name).shape for name in names] != [E + (2,), F + (3,),
                                                            F + (3,), E, F]:
            raise MeshError("edges, face_edges and face_signs must be (E, 2), (F, 3) "
                            "and (F, 3) arrays, with one id per edge and face")
        # every vertex of a closed surface is a face corner
        if self.vertex_count > 3 * len(self.face_edges):
            raise MeshError(f"vertex count {self.vertex_count} exceeds "
                            "3 * face count")
        if self.face_edges.min() < 0 or self.face_edges.max() >= len(self.edges):
            raise MeshError("face edge index out of range")
        if self.edges.min() < 0 or self.edges.max() >= self.vertex_count:
            raise MeshError("edge endpoint out of vertex range")
        slot_count = np.bincount(self.face_edges.ravel(), minlength=len(self.edges))
        if (slot_count > 2).any():
            eid = self.edge_ids[np.argmax(slot_count > 2)]
            raise MeshError(f"non-manifold edge {eid}: used by more than 2 face slots")
        if (slot_count < 2).any():
            eid = self.edge_ids[np.argmax(slot_count < 2)]
            raise MeshError(f"dangling edge {eid}: not used by exactly 2 face slots")
        self.edge_slots = np.argsort(self.face_edges.ravel(),
                                     kind="stable").reshape(-1, 2)
        unsigned = (np.abs(self.face_signs) != 1).any(axis=1)
        if unsigned.any():
            raise MeshError(f"face {self.face_ids[np.argmax(unsigned)]}: "
                            "edge signs must be +1 or -1")

        # Corner s = tail of directed edge s; check head-to-tail chaining.
        self.slot_ends = ends = self.edges.T.take(self.face_edges, axis=1)
        tails = np.where(self.face_signs > 0, ends[0], ends[1])
        heads = ends[0] + ends[1] - tails
        unchained = (heads != np.roll(tails, -1, axis=1)).any(axis=1)
        if unchained.any():
            raise MeshError(
                f"face {self.face_ids[np.argmax(unchained)]}: directed edges "
                "do not chain head-to-tail")
        self.face_corners = tails

        for a in (self.edges, self.face_edges, self.face_signs, self.edge_ids,
                  self.face_ids, self.face_corners, self.edge_slots,
                  self.slot_ends):
            a.flags.writeable = False

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def face_count(self) -> int:
        return len(self.face_edges)

    @property
    def euler_characteristic(self) -> int:
        return self.vertex_count - self.edge_count + self.face_count

    @property
    def genus(self) -> int:
        return (2 - self.euler_characteristic) // 2


@dataclass
class TopologyReport:
    """Result of :func:`validate_topology`."""

    is_simplicial: bool
    max_vertex_degree: int
    violations: list[str]
    solver_eligible: bool  # no violations and genus >= 2


def _records(text: str):
    """Yield (line number, stripped line, tokens) of each line that is not
    blank once its comment is cut; both text formats are read through here.
    Lines end only at LF, CRLF or CR, as ``Path.read_text`` reads them."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line, line.split()


def ascii_number(kind: type, tok: str):
    # int() and float() alone also take digit-group underscores, non-ASCII
    # digits and surrounding whitespace
    if "_" in tok or not tok.isascii() or tok != tok.strip():
        raise ValueError(f"not an ASCII number: {tok!r}")
    return kind(tok)


def _parse_number(kind: type, tok: str, what: str, lineno: int):
    try:
        value = ascii_number(kind, tok)
    except ValueError:
        raise MeshError(f"line {lineno}: bad {what} {tok!r}") from None
    if kind is int and not -2**63 <= value < 2**63:
        raise MeshError(f"line {lineno}: {what} {tok!r} outside int64")
    return value


def load_mesh(text: str) -> tuple[SurfaceMesh, np.ndarray]:
    """Parse the mesh file format; returns (mesh, edge lengths).

    Lengths are indexed like ``mesh.edges`` (file order); external edge and
    face ids are preserved in ``edge_ids`` / ``face_ids``.
    """
    records = _records(text)
    header = next(records, None)
    if header is None:
        raise MeshError("empty file: missing header")
    if header[1] != MAGIC:
        raise MeshError(f"line {header[0]}: expected header {MAGIC!r}")

    vertex_count = None
    # the mesh's columns in file order; index maps each edge id to its row
    index: dict[int, int] = {}
    edges, lengths, face_edges, face_signs, face_ids = [], [], [], [], {}
    for lineno, _, toks in records:
        kind = toks[0]
        if kind == "v":
            if vertex_count is not None:
                raise MeshError(f"line {lineno}: duplicate 'v' line")
            if len(toks) != 2:
                raise MeshError(f"line {lineno}: 'v' takes one count")
            vertex_count = _parse_number(int, toks[1], "vertex count", lineno)
            if vertex_count <= 0:
                raise MeshError(f"line {lineno}: vertex count must be > 0")
        elif kind == "e":
            if vertex_count is None:
                raise MeshError(f"line {lineno}: 'e' before 'v'")
            if len(toks) != 5:
                raise MeshError(f"line {lineno}: 'e' takes id, endpoints, length")
            eid = _parse_number(int, toks[1], "edge id", lineno)
            if eid in index:
                raise MeshError(f"line {lineno}: duplicate edge id {eid}")
            a = _parse_number(int, toks[2], "vertex", lineno)
            b = _parse_number(int, toks[3], "vertex", lineno)
            if not (0 <= a < vertex_count and 0 <= b < vertex_count):
                raise MeshError(f"line {lineno}: vertex id out of range")
            length = _parse_number(float, toks[4], "length", lineno)
            if not (length > 0 and math.isfinite(length)):
                raise MeshError(f"line {lineno}: edge length must be finite and > 0")
            index[eid] = len(edges)
            edges.append((a, b))
            lengths.append(length)
        elif kind == "f":
            if len(toks) != 5:
                raise MeshError(f"line {lineno}: 'f' takes id and 3 signed edges")
            fid = _parse_number(int, toks[1], "face id", lineno)
            if fid in face_ids:
                raise MeshError(f"line {lineno}: duplicate face id {fid}")
            face_ids[fid] = None
            for tok in toks[2:]:
                # one leading sign is the direction; the rest is the edge id
                face_signs.append(-1 if tok[0] == "-" else 1)
                eid = _parse_number(int, tok[1:] if tok[0] in "+-" else tok,
                                    "edge reference", lineno)
                if eid not in index:
                    raise MeshError(f"line {lineno}: face {fid} references "
                                    f"unknown edge {eid}")
                face_edges.append(index[eid])
        else:
            raise MeshError(f"line {lineno}: unknown record {kind!r}")

    if vertex_count is None:
        raise MeshError("missing 'v' line")

    mesh = SurfaceMesh(vertex_count, edges, np.reshape(face_edges, (-1, 3)),
                       np.reshape(face_signs, (-1, 3)), list(index), list(face_ids))
    return mesh, np.array(lengths, dtype=float)


def _repeated_ids(ids: np.ndarray) -> np.ndarray:
    """The ids that ``ids`` holds more than once, by a sort and a compare."""
    ids = np.sort(ids)
    return ids[1:][ids[1:] == ids[:-1]]


def dump_mesh(mesh: SurfaceMesh, lengths: np.ndarray) -> str:
    """Serialize back to the mesh file format (round-trip identity)."""
    if np.shape(lengths) != (mesh.edge_count,) or not (
            np.isfinite(lengths) & np.greater(lengths, 0)).all():
        raise ValueError(f"lengths must be {mesh.edge_count} finite values > 0")
    for what, ids in (("edge", mesh.edge_ids), ("face", mesh.face_ids)):
        if (twice := _repeated_ids(ids)).size:
            raise ValueError(f"duplicate {what} id {twice[0]}")
    out = [MAGIC, f"v {mesh.vertex_count}"]
    out += [f"e {eid} {a} {b} {length:.17g}" for eid, (a, b), length in zip(
        mesh.edge_ids.tolist(), mesh.edges.tolist(), np.asarray(lengths).tolist())]
    refs = iter([f"{'+' if sign > 0 else '-'}{eid}" for eid, sign in zip(
        mesh.edge_ids[mesh.face_edges].ravel().tolist(),
        mesh.face_signs.ravel().tolist())])
    out += [f"f {fid} {r0} {r1} {r2}"
            for fid, r0, r1, r2 in zip(mesh.face_ids.tolist(), refs, refs, refs)]
    return "\n".join(out) + "\n"


def vertex_components(vertex_count: int, edges: np.ndarray) -> np.ndarray:
    """Connected component of each vertex, labelled by its smallest vertex id.

    Min-label propagation with pointer jumping: every root of the label
    forest hooks onto the smallest root it shares an edge with, then each
    label is jumped to its root.  Roots at least halve every two rounds, so
    it takes O(log V) rounds of O(E + V) array work.  Loops, multi-edges
    and isolated vertices are allowed.
    """
    label = np.arange(vertex_count)
    while True:
        la, lb = label[edges.T]
        lo = np.minimum(la, lb)
        hooked = label.copy()
        np.minimum.at(hooked, la, lo)
        np.minimum.at(hooked, lb, lo)
        while True:
            jumped = hooked[hooked]
            if np.array_equal(jumped, hooked):
                break
            hooked = jumped
        if np.array_equal(hooked, label):
            return label
        label = hooked


def cycle_minima(perm: np.ndarray) -> np.ndarray:
    """Smallest entry on the cycle of each entry of a permutation, by pointer
    doubling: after k rounds ``low[i]`` is the least of 2**k steps from i."""
    low = np.arange(len(perm))
    while not np.array_equal(low, lower := np.minimum(low, low[perm])):
        low, perm = lower, perm[perm]
    return low


def validate_topology(mesh: SurfaceMesh) -> TopologyReport:
    """Report simpliciality, defects and solver eligibility.

    Defects (wrong orientation, pinched vertices, disconnectedness) are
    reported, not raised; a mesh is solver eligible iff there are no
    violations and genus >= 2.  This is the one place that rule is decided.
    """
    violations: list[str] = []

    # Each edge has two face slots (a SurfaceMesh invariant); they must
    # traverse it once in each direction.
    signs = mesh.face_signs.ravel()[mesh.edge_slots]
    for e in np.nonzero(signs[:, 0] == signs[:, 1])[0]:
        violations.append(f"edge {mesh.edge_ids[e]} traversed twice in the "
                          "same direction (orientation defect)")

    # Corner c is the tail of the edge in slot c; on an oriented mesh the next
    # corner around its vertex follows the other slot of that edge.  A closed
    # surface, whose Euler characteristic is even, has one cycle per vertex.
    if not violations:
        other = mesh.edge_slots[:, ::-1].ravel()
        turn = np.empty_like(other)
        turn[mesh.edge_slots.ravel()] = other - other % 3 + (other + 1) % 3
        first = cycle_minima(turn) == np.arange(turn.size)
        cycles = np.bincount(mesh.face_corners.ravel()[first])
        many = np.flatnonzero(cycles > 1)
        violations += [f"vertex {v}: link has {n} cycles (not a surface)"
                       for v, n in zip(many.tolist(), cycles[many].tolist())]

    # Connectivity of the 1-skeleton (vertices + edges).
    if vertex_components(mesh.vertex_count, mesh.edges).any():
        violations.append("mesh is disconnected")

    degree = np.bincount(mesh.edges.ravel(), minlength=mesh.vertex_count)

    lo, hi = mesh.edges.min(axis=1), mesh.edges.max(axis=1)
    key = np.sort(lo * mesh.vertex_count + hi)
    # a face with two equal corners has a loop edge, so loops cover that case
    is_simplicial = not ((lo == hi).any() or (key[1:] == key[:-1]).any())

    return TopologyReport(is_simplicial=is_simplicial,
                          max_vertex_degree=int(degree.max()),
                          violations=violations,
                          solver_eligible=not violations and mesh.genus >= 2)


def load_face_curvature(text: str, mesh: SurfaceMesh) -> np.ndarray:
    """Parse `k <face_id> <value>` lines into a per-face curvature vector."""
    values: dict[int, float] = {}
    for lineno, _, toks in _records(text):
        if toks[0] != "k" or len(toks) != 3:
            raise MeshError(f"line {lineno}: expected 'k <face_id> <value>'")
        fid = _parse_number(int, toks[1], "face id", lineno)
        if fid in values:
            raise MeshError(f"line {lineno}: duplicate face id {fid}")
        values[fid] = _parse_number(float, toks[2], "curvature", lineno)
    if (twice := _repeated_ids(mesh.face_ids)).size:
        raise MeshError(f"mesh has duplicate face id {twice[0]}")
    face_ids = mesh.face_ids.tolist()
    for fid in face_ids:
        if fid not in values:
            raise MeshError(f"missing curvature for face {fid}")
    extra = values.keys() - set(face_ids)
    if extra:
        raise MeshError(f"curvature given for unknown face {min(extra)}")
    kappa = np.array([values[fid] for fid in face_ids], dtype=float)
    if not (np.isfinite(kappa) & (kappa < 0)).all():
        raise MeshError("face curvatures must be finite and strictly negative")
    return kappa
