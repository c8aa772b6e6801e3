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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
        Vertices are the integers ``0 .. vertex_count-1``.
    edges : (E, 2) int array
        Endpoint vertices of each edge; loops (``a == b``) are allowed.
    face_edges : (F, 3) int array
        Edge *indices* (positions in ``edges``) of each oriented face.
    face_signs : (F, 3) int array
        +1 if the face walks the edge a→b, -1 for b→a.
    edge_ids, face_ids : (E,), (F,) int arrays
        External ids, preserved from the input file.

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

    def __post_init__(self):
        self.edges = np.ascontiguousarray(self.edges, dtype=np.int64)
        self.face_edges = np.ascontiguousarray(self.face_edges, dtype=np.int64)
        self.face_signs = np.ascontiguousarray(self.face_signs, dtype=np.int64)
        self.edge_ids = np.ascontiguousarray(self.edge_ids, dtype=np.int64)
        self.face_ids = np.ascontiguousarray(self.face_ids, dtype=np.int64)

        # every vertex of a closed surface is a face corner
        if self.vertex_count > 3 * len(self.face_edges):
            raise MeshError(f"vertex count {self.vertex_count} exceeds "
                            "3 * face count")
        if self.edges.size and (self.edges.min() < 0
                                or self.edges.max() >= self.vertex_count):
            raise MeshError("edge endpoint out of vertex range")
        if self.face_edges.size and (self.face_edges.min() < 0
                                     or self.face_edges.max() >= len(self.edges)):
            raise MeshError("face edge index out of range")
        slot_count = np.bincount(self.face_edges.ravel(), minlength=len(self.edges))
        if (slot_count > 2).any():
            eid = self.edge_ids[np.argmax(slot_count > 2)]
            raise MeshError(f"non-manifold edge {eid}: used by more than 2 face slots")
        if (slot_count < 2).any():
            eid = self.edge_ids[np.argmax(slot_count < 2)]
            raise MeshError(f"dangling edge {eid}: not used by exactly 2 face slots")
        unsigned = (np.abs(self.face_signs) != 1).any(axis=1)
        if unsigned.any():
            raise MeshError(f"face {self.face_ids[np.argmax(unsigned)]}: "
                            "edge signs must be +1 or -1")

        # Corner s = tail of directed edge s; check head-to-tail chaining.
        tails = np.where(self.face_signs > 0,
                         self.edges[self.face_edges, 0],
                         self.edges[self.face_edges, 1])
        heads = np.where(self.face_signs > 0,
                         self.edges[self.face_edges, 1],
                         self.edges[self.face_edges, 0])
        unchained = (heads != np.roll(tails, -1, axis=1)).any(axis=1)
        if unchained.any():
            raise MeshError(
                f"face {self.face_ids[np.argmax(unchained)]}: directed edges "
                "do not chain head-to-tail")
        self.face_corners = tails

        for a in (self.edges, self.face_edges, self.face_signs, self.edge_ids,
                  self.face_ids, self.face_corners):
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
    blank once its comment is cut; both text formats are read through here."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
    # id -> (a, b, length) and id -> (3 edge ids, 3 signs); dicts keep file order
    edges: dict[int, tuple[int, int, float]] = {}
    faces: dict[int, tuple[list[int], list[int]]] = {}
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
            if eid in edges:
                raise MeshError(f"line {lineno}: duplicate edge id {eid}")
            a = _parse_number(int, toks[2], "vertex", lineno)
            b = _parse_number(int, toks[3], "vertex", lineno)
            if not (0 <= a < vertex_count and 0 <= b < vertex_count):
                raise MeshError(f"line {lineno}: vertex id out of range")
            length = _parse_number(float, toks[4], "length", lineno)
            if not (length > 0 and math.isfinite(length)):
                raise MeshError(f"line {lineno}: edge length must be finite and > 0")
            edges[eid] = (a, b, length)
        elif kind == "f":
            if len(toks) != 5:
                raise MeshError(f"line {lineno}: 'f' takes id and 3 signed edges")
            fid = _parse_number(int, toks[1], "face id", lineno)
            if fid in faces:
                raise MeshError(f"line {lineno}: duplicate face id {fid}")
            eids, signs = [], []
            for tok in toks[2:]:
                # one leading sign is the direction; the rest is the edge id
                sign = -1 if tok[0] == "-" else 1
                eid = _parse_number(int, tok[1:] if tok[0] in "+-" else tok,
                                    "edge reference", lineno)
                if eid not in edges:
                    raise MeshError(f"line {lineno}: face {fid} references "
                                    f"unknown edge {eid}")
                eids.append(eid)
                signs.append(sign)
            faces[fid] = (eids, signs)
        else:
            raise MeshError(f"line {lineno}: unknown record {kind!r}")

    if vertex_count is None:
        raise MeshError("missing 'v' line")
    if not faces:
        raise MeshError("mesh has no faces")

    # edge ids become edge indices; SurfaceMesh makes the int64 arrays
    index = {eid: i for i, eid in enumerate(edges)}
    mesh = SurfaceMesh(vertex_count=vertex_count,
                       edges=[(a, b) for a, b, _ in edges.values()],
                       face_edges=[[index[eid] for eid in eids]
                                   for eids, _ in faces.values()],
                       face_signs=[signs for _, signs in faces.values()],
                       edge_ids=list(edges), face_ids=list(faces))
    return mesh, np.array([length for _, _, length in edges.values()], dtype=float)


def dump_mesh(mesh: SurfaceMesh, lengths: np.ndarray) -> str:
    """Serialize back to the mesh file format (round-trip identity)."""
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
    a, b = np.asarray(edges, dtype=np.int64).reshape(-1, 2).T
    while True:
        la, lb = label[a], label[b]
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


def validate_topology(mesh: SurfaceMesh) -> TopologyReport:
    """Report simpliciality, defects and solver eligibility.

    Defects (wrong orientation, pinched vertices, disconnectedness) are
    reported, not raised; a mesh is solver eligible iff there are no
    violations and genus >= 2.  This is the one place that rule is decided.
    """
    violations: list[str] = []

    # Each edge has two face slots (a SurfaceMesh invariant); they must
    # traverse it once in each direction.
    sign_sum = np.bincount(mesh.face_edges.ravel(), weights=mesh.face_signs.ravel(),
                           minlength=mesh.edge_count)
    for e in np.nonzero(sign_sum != 0)[0]:
        violations.append(f"edge {mesh.edge_ids[e]} traversed twice in the "
                          "same direction (orientation defect)")

    # Corner c is the tail of the edge in slot c; on an oriented mesh the next
    # corner around its vertex follows the other slot of that edge.  A closed
    # surface, whose Euler characteristic is even, has one cycle per vertex.
    if not violations:
        slots = np.argsort(mesh.face_edges.ravel(), kind="stable").reshape(-1, 2)
        other = slots[:, ::-1].ravel()
        turn = np.stack([slots.ravel(), other - other % 3 + (other + 1) % 3], axis=1)
        first = vertex_components(slots.size, turn) == np.arange(slots.size)
        cycles = np.bincount(mesh.face_corners.ravel()[first]).tolist()
        violations += [f"vertex {v}: link has {n} cycles (not a surface)"
                       for v, n in enumerate(cycles) if n > 1]

    # Connectivity of the 1-skeleton (vertices + edges).
    if vertex_components(mesh.vertex_count, mesh.edges).any():
        violations.append("mesh is disconnected")

    degree = np.bincount(mesh.edges.ravel(), minlength=mesh.vertex_count)

    lo, hi = mesh.edges.min(axis=1), mesh.edges.max(axis=1)
    key = np.sort(lo * mesh.vertex_count + hi)
    has_loop = bool((lo == hi).any())
    has_multi = bool((key[1:] == key[:-1]).any())
    c0, c1, c2 = mesh.face_corners.T
    degenerate_face = bool(((c0 == c1) | (c1 == c2) | (c2 == c0)).any())
    is_simplicial = not (has_loop or has_multi or degenerate_face)

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
