"""Container codec: whole graphs to bytes and back.

The encoder cuts each component of the input along a nested separation
hierarchy, built on the component's own rotations, and writes the finest
parts, then one recovery stream per hierarchy level that splices the parts
back together.  No chord is added: the separator's cycle phase triangulates
only its own contraction.  A finest part is one or more pieces of the
component minus the center, clustered around one center hook, so its part
graph (the part with its neighborhood) is connected.  A part graph of at
most the table cap's nodes is coded as an index into a class table
(completed into a member by a patcher where the class needs it, with the fix
serialized alongside); a larger one is written as its spanning-tree
contour code (``embgraph.write_contour_into``), which relabels it in DFS
preorder.  The encoder reads each part off the host's rotations as rows:
a contour part's rows are coded straight from the host, and only a table
part is built as a graph, for its completion and canonical labeling.  A
component within the table cap, or one on which no level of the schedule
binds, has no level: it is one part.  A component within the cap is read
off the input's own rotations, and so is a connected input; only a larger
component of a multi-component input is copied, as the host its
separation is built on.

The decoder needs no separation machinery: it rebuilds the fine parts as
rotation rows (a contour part is read straight into rows, a table member
is turned into rows once, after its fix), then replays the recovery streams
level by level.  Each piece a level rebuilds is built and validated once,
with ``EmbeddedGraph.from_rotations``; a body without levels builds its one
part the same way.  Fine parts are never built as graphs of their own: a
contour code that parses but carries a self-loop or a repeated edge
surfaces in the piece its rows are spliced into.

The table is the one of the class's ``table_class``: plane triangulations
code their small parts against the ``plane-connected`` table, every other
class against its own.

Container layout (bit-level; every field is self-delimiting in read order)::

    magic(24) uint(version) inline_flag(1) uint(class) uint(n) uint(genus)
    uint(components) TABLE BODIES zero-padding-to-byte

    TABLE  = TABLE_CAP x (uint(count), count x member code), sizes 1 up
                                           (inline_flag = 1)
           | nothing                       (inline_flag = 0; decoder builds it)
    BODIES = components x BODY, in ascending min-node order
    BODY   = uint(K) [uint(P) if K > 0] P x PART, then K level streams,
             finest first (P = 1 when K = 0: the component is the part;
             P = 0 when the finest level leaves the whole component in the
             center)
    PART   = uint(m) index [FIX]           (m <= TABLE_CAP; FIX only for the
                                            "connect" patch)
           | uint(m) COMP...               (m > TABLE_CAP: write_contour_into;
                                            components until m nodes)
    FIX    = uint(a) uint(e) a x label, e x (label label)
             labels are bitlen(m-1) wide; nodes ascending, edges (small,
             large) lexicographically ascending
    COMP   = 0 uint(e) 2e x symbol(1)      (a tree: 0 down, 1 back up)
           | 1 uint(e) 2e x symbol(2)      (else: 0/1 tree edge down/up,
                                            2/3 non-tree edge open/close)

The header's class names the table (the one of its ``table_class``) and
``TABLE_CAP`` fixes its sizes, so the container writes neither.  Every BODY
ends where its last field ends, so the bodies follow one another with no
length or separator between them.

Decoding returns the graph under its *decoded* labeling — the composition of
the per-level zone labelings, with components laid out one after another.
The encoder cannot afford to store the input labeling (that alone costs
n log n bits), so ``encode`` returns it as side metadata instead: the
contract is ``decode(result.data) == g.relabel(result.labeling)``, exactly.

The inline table section is read with ``table.read_table``.  When the
decoding process already holds that table (``build_table`` built or loaded
it, as ``encode`` always has before its own re-parse), the section is
compared bit for bit with the held table's serialization and, on a match, the
held table is used; otherwise the section is parsed member by member as a
new table.  A table parses each of its members at most once
(``ClassTable.member_graph``).

``stats`` re-parses a container and reports where its bits went, layer by
layer, from the actual stream — not from a re-encode.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bits import BitReader, BitString, BitWriter, ceil_log2
from .constants import FORMAT_VERSION, MAGIC, MAX_LEVELS, MAX_NODES, TABLE_CAP
from .embgraph import (
    EmbeddedGraph,
    canonical_labeling,
    disjoint_union,
    read_contour,
    triangulate,  # unused; bench/spans.py traces it by name (ROADMAP item 1)
    write_contour_into,
)
from .errors import ChecksFailed, CodecError, InvalidEmbedding, NotInClass
from .patcher import Fix, apply_fix, complete
from .recovery import PartView, decode_level_from, encode_level
from .separation import build_separations
from .table import CLASS_ORDER, ClassTable, build_table, get_class, read_table

__all__ = ["EncodeResult", "Stats", "decode", "encode", "stats"]


@dataclass(frozen=True)
class Stats:
    """Where a container's bits went, from parsing the actual stream.

    ``part_sizes``/``part_widths`` list every finest part written, across
    all components: its node count m and the bits of its code after the
    size field (a table index, or a contour code with its per-component
    flags and edge counts).  ``covered_nodes``
    sums the node counts of the fine part graphs those codes (after fixes)
    decode to.  ``levels`` is the level count per component body (0 = the
    component is one part).
    """

    n: int
    class_name: str
    genus: int
    components: int
    levels: tuple[int, ...]
    part_sizes: tuple[int, ...]
    part_widths: tuple[int, ...]
    covered_nodes: int
    header_bits: int
    table_bits: int
    prefix_bits: int
    part_code_bits: int
    fix_bits: int
    recovery_bits: int
    padding_bits: int
    total_bits: int


@dataclass(frozen=True)
class EncodeResult:
    """A container plus the input-to-decoded node labeling and its stats."""

    data: bytes
    labeling: list[int]
    stats: Stats


# -- encoding -------------------------------------------------------------------


def encode(
    g: EmbeddedGraph,
    class_name: str,
    *,
    inline_table: bool = True,
    cache_dir=None,
) -> EncodeResult:
    """Encode an embedded graph as a member of the named class.

    Parts of at most ``TABLE_CAP`` nodes are coded against the class's
    table, built or loaded with ``build_table`` from ``cache_dir``.  With
    ``inline_table`` the container carries that table; without it the
    header's class names the table and the decoder builds its own copy.

    Raises NotInClass when the graph fails the class predicate, as every
    graph of positive genus does.
    """
    cls = get_class(class_name)
    search = g.component_ids()
    genus, ncomp = g.euler(search)
    if not cls.admits(g, genus, ncomp):
        raise NotInClass(f"graph is not a member of class {class_name}")
    table = build_table(class_name, cache_dir=cache_dir)

    w = BitWriter()
    w.write_uint_bits(MAGIC, 24)
    w.write_uint(FORMAT_VERSION)
    w.write_bit(1 if inline_table else 0)
    w.write_uint(CLASS_ORDER.index(class_name))
    w.write_uint(g.n)
    w.write_uint(genus)
    w.write_uint(ncomp)
    if inline_table:
        w.write_bits(table.serialize())

    comps: list[list[int]] = [[] for _ in range(ncomp)]
    for v, c in enumerate(search[0]):
        comps[c].append(v)
    labeling = [0] * g.n
    offset = 0
    for nodes in comps:
        if len(nodes) <= TABLE_CAP:
            w.write_uint(0)  # no level: the component is one part
            order = _encode_part(w, g, nodes, cls, table).ids
        else:
            # A connected input is its own host; induced would copy it.
            sub, ids = (g, nodes) if ncomp == 1 else g.induced(nodes)
            order = [ids[v] for v in _encode_body(w, sub, cls, table, genus)]
        for pos, node in enumerate(order):
            labeling[node] = offset + pos
        offset += len(order)
    data = w.build().to_bytes()
    return EncodeResult(data, labeling, stats(data, cache_dir=cache_dir))


def _encode_body(
    w: BitWriter, sub: EmbeddedGraph, cls, table: ClassTable, genus: int
) -> list[int]:
    """Write one connected component above the table cap: its finest parts,
    then one recovery stream per level.  Returns its nodes in decoded order.

    The separations are built on ``sub`` itself, which every part and
    recovery stream is read from.  The finest one is the last level of
    ``build_separations``, which is the trivial one (the whole component as
    one part) when no level's caps bind.  ``genus`` is the whole input's,
    which bounds the component's."""
    seps = build_separations(sub, genus)
    nlevels = len(seps) - 1
    parts = seps[-1].parts[1:]
    w.write_uint(nlevels)
    if nlevels:
        w.write_uint(len(parts))
    views = []
    for i, part in enumerate(parts):
        try:
            views.append(_encode_part(w, sub, part, cls, table))
        except ChecksFailed as exc:
            raise ChecksFailed(f"finest part {i} ({len(part)} nodes): {exc}") from exc
    for k in range(nlevels, 0, -1):
        bits, views = encode_level(seps[k - 1], seps[k], views)
        w.write_bits(bits)
    return views[0].ids


def _encode_part(
    w: BitWriter, sub: EmbeddedGraph, part: list[int], cls, table: ClassTable
) -> PartView:
    """Write one finest-level part and return its recovery view.

    The part graph is read off the host as rotation rows (``part_rows``);
    no graph is built for a part above the table cap, whose rows are written
    as their contour code, and whose view follows the code's DFS preorder.
    A smaller part's graph is built from the same rows, completed
    into a member of the table class and canonically relabeled, which is the
    one canonical labeling the table lookup needs, and the fix is translated
    along.  Its view labels the graph the decoder will rebuild, the member
    with the fix applied: the member labels that survive the fix, compacted
    in ascending order.

    Every part graph is connected (the module docstring says why): a plane
    triangulation's small part is a member of the ``plane-connected`` table
    as it is, and the ``connect`` completion writes an empty fix.
    """
    ids, bnd, rows = sub.part_rows(part)
    if len(ids) > TABLE_CAP:
        order = write_contour_into(w, rows)
        pre = [0] * len(order)
        for i, local in enumerate(order):
            pre[local] = i
        return PartView(frozenset(pre[b] for b in bnd), [ids[local] for local in order])
    h, fix = complete(EmbeddedGraph.from_rotations(rows), cls.patch)
    lab = canonical_labeling(h)
    member = h.relabel(lab)
    try:
        m, idx = table.index_of(member)
    except NotInClass as exc:
        raise ChecksFailed(f"pipeline produced an unusable table member: {exc}") from exc
    mfix = fix.relabeled(lab)
    n = len(ids)
    if member.n - len(mfix.added_nodes) != n:
        raise ChecksFailed("fix does not restore the part graph's node count")
    w.write_uint(m)
    w.write_uint_bits(idx, table.width(m))
    if cls.patch != "none":
        _write_fix(w, mfix, m)
    added = set(mfix.added_nodes)
    rank = {}
    for x in range(member.n):
        if x not in added:
            rank[x] = len(rank)
    ids_v = [0] * n
    boundary = set()
    for local in range(n):
        fl = rank[lab[local]]
        ids_v[fl] = ids[local]
        if local in bnd:
            boundary.add(fl)
    return PartView(frozenset(boundary), ids_v)


def _write_fix(w: BitWriter, fix: Fix, m: int) -> None:
    lw = ceil_log2(m)
    w.write_uint(len(fix.added_nodes))
    w.write_uint(len(fix.deleted_edges))
    for v in fix.added_nodes:
        w.write_uint_bits(v, lw)
    for u, v in fix.deleted_edges:
        w.write_uint_bits(u, lw)
        w.write_uint_bits(v, lw)


# -- decoding -------------------------------------------------------------------


def decode(data: bytes, *, cache_dir=None) -> EmbeddedGraph:
    """Decode a container back to its embedded graph (decoded labeling).

    A by-reference container's table is built or loaded with ``build_table``
    from ``cache_dir``; an inline table is read with ``read_table``, which
    parses each member as a graph but does not re-check that it is a
    canonical class member.  Raises CodecError on any malformation: every
    count, label, index, and stream is validated, and the decoded graph must
    satisfy the container's class predicate, node count, component count,
    and genus.
    """
    graph, _st = _parse(data, cache_dir)
    return graph


def stats(data: bytes, *, cache_dir=None) -> Stats:
    """Parse a container and report its exact bit layout (see Stats)."""
    _graph, st = _parse(data, cache_dir)
    return st


def _parse(data: bytes, cache_dir) -> tuple[EmbeddedGraph, Stats]:
    bits = BitString.from_bytes(data, 8 * len(data))
    r = BitReader(bits)
    acc = {
        "header": 0,
        "table": 0,
        "part_code": 0,
        "fix": 0,
        "recovery": 0,
        "levels": [],
        "part_sizes": [],
        "part_widths": [],
        "covered": 0,
    }
    try:
        if r.read_uint_bits(24) != MAGIC:
            raise CodecError("bad magic")
        if r.read_uint() != FORMAT_VERSION:
            raise CodecError("unsupported container version")
        inline = r.read_bit()
        class_id = r.read_uint()
        if class_id >= len(CLASS_ORDER):
            raise CodecError(f"unknown graph class id {class_id}")
        class_name = CLASS_ORDER[class_id]
        cls = get_class(class_name)
        n = r.read_uint()
        if n > MAX_NODES:
            raise CodecError("node count out of range")
        genus = r.read_uint()
        if genus > MAX_NODES:
            raise CodecError("genus out of range")
        ncomp = r.read_uint()
        if (ncomp == 0) != (n == 0) or ncomp > max(n, 1):
            raise CodecError("component count inconsistent with node count")
        acc["header"] = r.pos

        mark = r.pos
        if inline:
            table = read_table(r, class_name)
        else:
            table = build_table(class_name, cache_dir=cache_dir)
        acc["table"] = r.pos - mark

        # Each body reads at least one bit, so a hostile ncomp runs out of
        # stream before it runs out of memory.
        pieces = [_decode_body(r, cls, table, acc) for _ in range(ncomp)]

        pad = r.remaining
        if pad >= 8 or (pad and r.read_uint_bits(pad) != 0):
            raise CodecError("trailing data after container")

        graph = disjoint_union(pieces)
        if graph.n != n:
            raise CodecError("decoded node count does not match the header")
        graph_genus, graph_ncomp = graph.euler()
        if graph_ncomp != ncomp:
            raise CodecError("decoded component count does not match the header")
        if graph_genus != genus:
            raise CodecError("decoded genus does not match the header")
        if not cls.admits(graph, graph_genus, graph_ncomp):
            raise CodecError("decoded graph fails the class predicate")
    except CodecError:
        raise
    except IndexError as exc:
        # BitReader raises CodecError on past-end reads; IndexError here means
        # a count sent a lookup out of range before validation caught it.
        raise CodecError(f"malformed container: {exc}") from exc

    total = len(bits)
    st = Stats(
        n=n,
        class_name=class_name,
        genus=genus,
        components=ncomp,
        levels=tuple(acc["levels"]),
        part_sizes=tuple(acc["part_sizes"]),
        part_widths=tuple(acc["part_widths"]),
        covered_nodes=acc["covered"],
        header_bits=acc["header"],
        table_bits=acc["table"],
        # Everything that is not payload, table, header, or padding: the
        # level and part counts and the part size fields.
        prefix_bits=total
        - acc["header"]
        - acc["table"]
        - acc["part_code"]
        - acc["fix"]
        - acc["recovery"]
        - pad,
        part_code_bits=acc["part_code"],
        fix_bits=acc["fix"],
        recovery_bits=acc["recovery"],
        padding_bits=pad,
        total_bits=total,
    )
    return graph, st


def _decode_body(r: BitReader, cls, table: ClassTable, acc: dict) -> EmbeddedGraph:
    """One component body: its fine parts as rotation rows, then the level
    streams that splice them into one piece.  Each rebuilt piece is built
    and validated once; a body without levels builds its one part."""
    nlevels = r.read_uint()
    if nlevels > MAX_LEVELS:
        raise CodecError("level count out of range")
    acc["levels"].append(nlevels)
    npieces = r.read_uint() if nlevels else 1
    if npieces > MAX_NODES:
        raise CodecError("part count out of range")
    fines = [_decode_part(r, cls, table, acc) for _ in range(npieces)]

    if not nlevels:
        try:
            return EmbeddedGraph.from_rotations(fines[0])
        except InvalidEmbedding as exc:
            raise CodecError(f"part rows are not an embedding: {exc}") from exc
    mark = r.pos
    for level in range(nlevels):
        if level:
            fines = [piece.to_rotations() for piece in pieces]
        pieces = decode_level_from(r, fines)
    acc["recovery"] += r.pos - mark
    if len(pieces) != 1:
        raise CodecError("body does not reduce to a single piece")
    if not pieces[0].n:
        raise CodecError("empty component body")
    return pieces[0]


def _decode_part(r: BitReader, cls, table: ClassTable, acc: dict) -> list[list[int]]:
    """One PART as rotation rows: its size m picks the coder, a table index
    (and a fix) up to the table cap, a contour code above it.  A contour
    code is checked for balance and node count here; its rows are validated
    as part of the piece they are spliced into."""
    start = r.pos
    m = r.read_uint()
    if m == 0:
        raise CodecError("empty part")
    mark = r.pos
    if m > TABLE_CAP:
        r.pos = start
        rows = read_contour(r)
        width = r.pos - mark
    else:
        width = table.width(m)
        fine = table.member_graph(m, r.read_uint_bits(width))
        if cls.patch != "none":
            mark = r.pos
            fine = apply_fix(fine, _read_fix(r, m))
            acc["fix"] += r.pos - mark
        rows = fine.to_rotations()
    acc["part_code"] += width
    acc["part_sizes"].append(m)
    acc["part_widths"].append(width)
    acc["covered"] += len(rows)
    return rows


def _read_fix(r: BitReader, m: int) -> Fix:
    lw = ceil_log2(m)
    na = r.read_uint()
    ne = r.read_uint()
    if na > m or ne > m * m:
        raise CodecError("fix size out of range")
    added = []
    for _ in range(na):
        v = r.read_uint_bits(lw)
        if v >= m:
            raise CodecError("fix node label out of range")
        added.append(v)
    edges = []
    for _ in range(ne):
        u = r.read_uint_bits(lw)
        v = r.read_uint_bits(lw)
        if u >= m or v >= m:
            raise CodecError("fix edge label out of range")
        edges.append((u, v))
    try:
        return Fix(tuple(added), tuple(edges))
    except ValueError as exc:
        raise CodecError(f"malformed fix: {exc}") from exc

