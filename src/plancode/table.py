"""Per-class tables of small connected embedded graphs.

A table for a graph class holds, for every node count m from 1 to
``TABLE_CAP``, the sorted list of serialized canonical forms ("codes") of all
connected class members with exactly m nodes, up to orientation-preserving
embedded isomorphism.  Every part graph the codec writes is connected, so no
table holds a disconnected member.  A member is then identified by its index
into that list, written in ``ceil(log2 count)`` fixed bits — the minimal
fixed-width code for the class at that size.

Tables are deterministic: the same class always produces the same member
lists, so an encoder and a decoder that build their own copies agree on every
index. Built tables are kept per process and cached on disk, and can be
serialized into a self-delimiting bit stream of member counts and codes (used
verbatim as the inline table section of containers, whose header names the
class). Within one process a table member is parsed at most once, and an
inline table section equal to a table the process holds is not parsed at all
(``read_table``).

Members grow breadth-first from the single node by two moves that preserve
genus 0 — a chord between two distinct, non-adjacent corners of one face, and
a pendant node at a face corner.  Candidates are deduplicated by canonical
traversal stream, so each member is serialized once.  Every connected member
is reachable: reversing a move deletes either a leaf or a non-bridge edge
(which merges its two distinct incident faces), and the classes here are
closed under both deletions.

A class codes its parts against the table of its ``GraphClass.table_class``.
The connected members of the plane classes are the connected plane graphs,
so ``planar`` and ``plane-triangulation`` (whose finest parts are connected
plane graphs, not triangulations) both code against the ``plane-connected``
table, which ``build_table`` returns for either name.  The ``forest-deg5``
table holds the plane trees: at most 6 nodes, no degree reaches 6.
"""

from __future__ import annotations

import os
from collections import Counter, deque
from dataclasses import dataclass
from typing import Callable

from .bits import BitReader, BitString, BitWriter, ceil_log2
from .constants import TABLE_CAP
from .embgraph import (
    EmbeddedGraph,
    canonical_code,
    canonical_form,
    read_graph,
    write_graph,
)
from .errors import CodecError, NotInClass

__all__ = [
    "GraphClass",
    "ClassTable",
    "CLASSES",
    "CLASS_ORDER",
    "get_class",
    "build_table",
    "read_table",
]


# -- class membership predicates ---------------------------------------------
#
# Each takes the graph's genus and component count (``EmbeddedGraph.euler()``),
# so a caller that traced the faces once need not trace them again.


def _plane(g: EmbeddedGraph, genus: int, ncomp: int) -> bool:
    """Embedded on the sphere (genus 0); any number of components."""
    return genus == 0


def _plane_connected(g: EmbeddedGraph, genus: int, ncomp: int) -> bool:
    """Connected and embedded on the sphere."""
    return genus == 0 and ncomp <= 1


def _plane_triangulation(g: EmbeddedGraph, genus: int, ncomp: int) -> bool:
    """Connected sphere embedding with at least 3 nodes and all faces
    of length 3 (includes the triangle and every stacked/flipped variant).

    In a connected simple sphere embedding on n >= 3 nodes every face walk
    has length >= 3, so 2E >= 3F, and with V - E + F = 2 that reads
    E <= 3n - 6, with equality exactly when every face is a triangle."""
    return g.n >= 3 and ncomp == 1 and genus == 0 and g.num_edges == 3 * g.n - 6


def _forest_deg5(g: EmbeddedGraph, genus: int, ncomp: int) -> bool:
    """Acyclic with maximum degree 5; any number of components. (Embedded
    forests always have genus 0: a tree's rotation system has one face.)"""
    if g.node_of and max(Counter(g.node_of).values()) > 5:
        return False
    return g.num_edges == g.n - ncomp


# -- class registry -----------------------------------------------------------


@dataclass(frozen=True)
class GraphClass:
    """A graph class the codec can operate on.

    admits: full membership predicate, given the embedded graph with its
        genus and component count: ``admits(g, *g.euler())``; ``member(g)``
        computes those itself.
    table_class: the class whose connected members code the parts:
        ``plane-connected`` for every plane class, the class itself for
        forests (see ``codec._encode_part``).
    chord_moves: whether the connected-member enumeration tries chord
        insertions (pointless for acyclic classes).
    """

    name: str
    admits: Callable[[EmbeddedGraph, int, int], bool]
    table_class: str
    chord_moves: bool = True

    def member(self, g: EmbeddedGraph) -> bool:
        return self.admits(g, *g.euler())


CLASS_ORDER: tuple[str, ...] = (
    "planar",
    "plane-connected",
    "plane-triangulation",
    "forest-deg5",
)

CLASSES: dict[str, GraphClass] = {
    "planar": GraphClass(
        name="planar",
        admits=_plane,
        table_class="plane-connected",
    ),
    "plane-connected": GraphClass(
        name="plane-connected",
        admits=_plane_connected,
        table_class="plane-connected",
    ),
    "plane-triangulation": GraphClass(
        name="plane-triangulation",
        admits=_plane_triangulation,
        table_class="plane-connected",
    ),
    "forest-deg5": GraphClass(
        name="forest-deg5",
        admits=_forest_deg5,
        table_class="forest-deg5",
        chord_moves=False,
    ),
}


def get_class(name: str) -> GraphClass:
    try:
        return CLASSES[name]
    except KeyError:
        known = ", ".join(CLASS_ORDER)
        raise ValueError(f"unknown graph class {name!r} (known: {known})") from None


# -- enumeration --------------------------------------------------------------


def _connected_members(
    gclass: GraphClass, cap: int
) -> dict[int, dict[BitString, EmbeddedGraph]]:
    """All connected members with 1..cap nodes, keyed by canonical code."""
    out: dict[int, dict[BitString, EmbeddedGraph]] = {m: {} for m in range(1, cap + 1)}
    queue: deque[EmbeddedGraph] = deque()
    seen: set[tuple[int, ...]] = set()

    def admit(g: EmbeddedGraph) -> None:
        # Candidates are connected: equal streams mean equal codes.
        if not gclass.member(g):
            return
        stream, label = canonical_form(g)
        if stream in seen:
            return
        seen.add(stream)
        out[g.n][write_graph(g.relabel(label))] = g
        queue.append(g)

    admit(EmbeddedGraph.from_rotations([[]]))
    while queue:
        g = queue.popleft()
        if g.n == 1:
            if cap >= 2:
                admit(EmbeddedGraph.from_rotations([[1], [0]]))
            continue
        if g.n < cap:
            for d in range(g.num_darts):
                h = g.copy()
                h.insert_leaf(d)
                admit(h)
        if gclass.chord_moves:
            # A face's corners: the one after d ^ 1 for each dart d on it.
            face_of, nfaces = g.face_of_darts()
            by_face: list[list[int]] = [[] for _ in range(nfaces)]
            for d in range(g.num_darts):
                by_face[face_of[d]].append(d ^ 1)
            for darts in by_face:
                for i, pa in enumerate(darts):
                    u = g.node_of[pa]
                    for pb in darts[i + 1 :]:
                        v = g.node_of[pb]
                        if u == v or g.has_edge(u, v):
                            continue
                        h = g.copy()
                        h.insert_chord(pa, pb)
                        admit(h)
    return out


# -- the table -----------------------------------------------------------------


class ClassTable:
    """Sorted canonical-code lists for one class, by member node count, for
    every size from 1 to ``TABLE_CAP``.

    A table does not change once built.  It keeps its serialization, made on
    first use, and every member graph it has parsed, so within one process
    each member of a table is parsed at most once.
    """

    def __init__(self, gclass: GraphClass, members: list[list[BitString]]):
        if len(members) != TABLE_CAP + 1:
            raise ValueError("members list must have one entry per size 0..TABLE_CAP")
        self.gclass = gclass
        self._members = members
        self._index: dict[BitString, tuple[int, int]] = {}
        for m, codes in enumerate(members):
            for i, code in enumerate(codes):
                self._index[code] = (m, i)
        self._graphs: dict[tuple[int, int], EmbeddedGraph] = {}
        self._bits: BitString | None = None

    @property
    def name(self) -> str:
        return self.gclass.name

    def num(self, m: int) -> int:
        """Number of members with exactly m nodes."""
        if not 1 <= m <= TABLE_CAP:
            raise ValueError(f"size {m} outside table range 1..{TABLE_CAP}")
        return len(self._members[m])

    def width(self, m: int) -> int:
        """Bits of a member index at size m: ceil(log2 num), 0 when num <= 1."""
        return ceil_log2(self.num(m))

    def member_code(self, m: int, idx: int) -> BitString:
        if not 1 <= m <= TABLE_CAP or not 0 <= idx < len(self._members[m]):
            raise CodecError(
                f"member index {idx} out of range for class {self.name} size {m}"
            )
        return self._members[m][idx]

    def member_graph(self, m: int, idx: int) -> EmbeddedGraph:
        """The member at (m, idx) under its canonical labeling.  The member is
        parsed on first use and kept; each call returns a fresh copy, so a
        caller may change it without touching the table."""
        g = self._graphs.get((m, idx))
        if g is None:
            code = self.member_code(m, idx)
            r = BitReader(code.to_bytes(), len(code))
            g = read_graph(r)
            if r.remaining:
                raise CodecError("trailing bits in table member code")
            self._graphs[(m, idx)] = g
        return g.copy()

    def index_of(self, g: EmbeddedGraph) -> tuple[int, int]:
        """(size, index) of a member graph; the graph's labeling is ignored.
        A graph above the cap is no member, and raises NotInClass unlabeled.

        A graph already under its canonical labeling serializes to its own
        canonical code, so it is found without being labeled a second time;
        any other graph is canonically labeled here, unless it is
        disconnected: every member is connected, so such a graph is no
        member, and raises NotInClass unlabeled.
        """
        got = None
        if g.n <= TABLE_CAP:
            got = self._index.get(write_graph(g))
            if got is None and g.connected:
                got = self._index.get(canonical_code(g))
        if got is None:
            raise NotInClass(f"graph of {g.n} nodes is not a {self.name} table member")
        return got

    def __contains__(self, g: EmbeddedGraph) -> bool:
        try:
            self.index_of(g)
            return True
        except NotInClass:
            return False

    def counts(self) -> list[int]:
        """Member counts for sizes 1..TABLE_CAP."""
        return [len(codes) for codes in self._members[1:]]

    # -- serialization ---------------------------------------------------------

    def serialize(self) -> BitString:
        """Self-delimiting stream: per size 1..TABLE_CAP the member count
        followed by the member codes (each itself self-delimiting).  The
        class is not written: a container's header names it."""
        if self._bits is None:
            w = BitWriter()
            for codes in self._members[1:]:
                w.write_uint(len(codes))
                for code in codes:
                    w.write_bits(code)
            self._bits = w.build()
        return self._bits

    @classmethod
    def deserialize_from(
        cls, r: BitReader, gclass: GraphClass, verify: bool = False
    ) -> "ClassTable":
        """Parse a serialized table of ``gclass``.  Every member is read as a
        graph, and its code is the bits that read consumed; the parsed graphs
        are kept.  With ``verify`` each member must also be a connected
        canonical class member of its size, and the codes of a size strictly
        sorted."""
        members: list[list[BitString]] = [[] for _ in range(TABLE_CAP + 1)]
        graphs: dict[tuple[int, int], EmbeddedGraph] = {}
        for m in range(1, TABLE_CAP + 1):
            count = r.read_uint()
            if count > 1 << 24:
                raise CodecError(f"implausible member count {count}")
            for i in range(count):
                start = r.pos
                g = read_graph(r)
                code = r.since(start)
                if verify:
                    if g.n != m:
                        raise CodecError("table member has the wrong node count")
                    genus, ncomp = g.euler()
                    if ncomp != 1 or not gclass.admits(g, genus, ncomp):
                        raise CodecError("table member is not a connected class member")
                    if canonical_code(g) != code:
                        raise CodecError("table member code is not canonical")
                members[m].append(code)
                graphs[(m, i)] = g
            if verify:
                keys = [(len(c), c.value) for c in members[m]]
                if keys != sorted(set(keys)):
                    raise CodecError("table member codes not strictly sorted")
        table = cls(gclass, members)
        table._graphs = graphs
        return table

    @classmethod
    def from_bytes(
        cls, data: bytes, nbits: int, gclass: GraphClass, verify: bool = False
    ) -> "ClassTable":
        """Parse a table serialized alone in the first ``nbits`` bits of
        ``data``: nothing may follow it."""
        r = BitReader(data, nbits)
        table = cls.deserialize_from(r, gclass, verify=verify)
        if r.remaining:
            raise CodecError("trailing bits after table")
        return table


def read_table(r: BitReader, name: str) -> ClassTable:
    """Read the serialized table of the class ``name`` codes against (its
    ``table_class``) at the cursor.

    When this process already holds that table (built or loaded by
    ``build_table``), the stream is compared with the table's serialization,
    and on an exact match the held table is returned without parsing a
    member.  The serialization is self-delimiting, so those bits would parse
    to that same table.  Anything else is parsed as usual.
    """
    gclass = get_class(get_class(name).table_class)
    held = _TABLE_MEMO.get(gclass.name)
    if held is not None:
        mark = r.pos
        bits = held.serialize()
        if r.remaining >= len(bits) and r.read_bits(len(bits)) == bits:
            return held
        r.pos = mark
    return ClassTable.deserialize_from(r, gclass)


# -- building and caching -------------------------------------------------------


_TABLE_MEMO: dict[str, ClassTable] = {}

_CACHE_MAGIC = b"PLTB"
# Raised whenever the members of a table change: a file of another member
# set passes every check ``verify`` makes, and its indices would not be the
# ones a fresh decoder's table gives.
_CACHE_VERSION = 3


def _cache_root(cache_dir: str | None) -> str:
    if cache_dir is not None:
        return cache_dir
    env = os.environ.get("PLANCODE_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "plancode")


def _load_cache_file(path: str, gclass: GraphClass) -> ClassTable | None:
    try:
        with open(path, "rb") as f:
            blob = f.read()
        if len(blob) < 13 or blob[:4] != _CACHE_MAGIC or blob[4] != _CACHE_VERSION:
            return None
        bitlen = int.from_bytes(blob[5:13], "big")
        payload = blob[13:]
        if not 8 * len(payload) - 7 <= bitlen <= 8 * len(payload):
            return None
        return ClassTable.from_bytes(payload, bitlen, gclass, verify=True)
    except (OSError, CodecError, ValueError):
        return None


def _store_cache_file(path: str, table: ClassTable) -> None:
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        bits = table.serialize()
        blob = (
            _CACHE_MAGIC
            + bytes([_CACHE_VERSION])
            + len(bits).to_bytes(8, "big")
            + bits.to_bytes()
        )
        tmp = f"{path}.tmp{os.getpid()}"
        with open(tmp, "wb") as f:
            f.write(blob)
        os.replace(tmp, path)
    except OSError:
        pass  # cache is best-effort; the built table is still returned


def _sort_key(code: BitString) -> tuple[int, int]:
    return (len(code), code.value)


def _enumerate_members(gclass: GraphClass, cap: int) -> list[list[BitString]]:
    """Sorted member codes of each size 0..cap (none of size 0)."""
    by_size = _connected_members(gclass, cap)
    return [[]] + [sorted(by_size[m], key=_sort_key) for m in range(1, cap + 1)]


def build_table(name: str, *, cache_dir: str | None = None) -> ClassTable:
    """Build (or load) the table that codes a class's parts: the table of
    ``get_class(name).table_class``, so ``build_table("planar")`` and
    ``build_table("plane-triangulation")`` return the ``plane-connected``
    table, with its memo entry and cache file.

    A table holds the connected members of 1 to ``TABLE_CAP`` nodes;
    enumeration cost grows 10- to 20-fold per extra node (forests: 2-fold).
    Tables are memoized per process, by class name, and cached on disk
    under ``cache_dir``, else $PLANCODE_CACHE_DIR, else ~/.cache/plancode.
    """
    gclass = get_class(get_class(name).table_class)
    table = _TABLE_MEMO.get(gclass.name)
    if table is None:
        path = os.path.join(_cache_root(cache_dir), f"{gclass.name}.tbl")
        table = _load_cache_file(path, gclass)
        if table is None:
            table = ClassTable(gclass, _enumerate_members(gclass, TABLE_CAP))
            _store_cache_file(path, table)
        _TABLE_MEMO[gclass.name] = table
    return table
