"""Container codec: whole graphs to bytes and back.

The encoder cuts each component of the input along a nested separation
hierarchy, built in place on the input's own rotations, and writes the finest
parts, then one recovery stream per hierarchy level that splices the parts
back together.  No chord is added: the separator's cycle phase triangulates
only its own contraction.  A finest part is one or more pieces of the
component minus the center, clustered around one center hook, so its part
graph (the part with its neighborhood) is connected.  A part graph of at
most the table cap's nodes is coded as its index into a table of connected
class members; a larger one is written as its spanning-tree contour code
(``embgraph.write_part_contour_into``), which relabels it in DFS preorder.
The contour code is written straight off the host's darts; only a table
part is read off the host as rotation rows and built as a graph, for its
canonical labeling.  A component within the table cap, or one on which no
level of the schedule binds, has no level: it is one part, read off the
input's own rotations with no separation built.  The input is the host of
every component's separation and is never copied: a component is its
sorted node list, and the per-node scratch arrays of the separations are
built once per input (``separation.Scratch``) and shared by its components.

The decoder needs no separation machinery: it rebuilds the fine parts as
rotation rows (a contour part is read straight into rows, a table member
is turned into rows once), then replays the recovery streams level by
level, each turning one level's rows into the next.  A body's rows hold
labels past the bodies before it: the last level of a body writes them at
the body's node offset as it relabels, and only a body without levels (at
most 72 nodes as encoders write it) is shifted row by row.  The container's
one graph is built and validated once, with one
``EmbeddedGraph.from_rotations``.  No part or piece is built as a graph of
its own: a contour code that parses but carries a
self-loop or a repeated edge surfaces there.

The table is the one of the class's ``table_class``, and holds connected
members only: every plane class codes its small parts against the
``plane-connected`` table, and forests against the plane trees of the
``forest-deg5`` table.  A small part graph is a table member as it is, so
no part carries a fix.

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
    PART   = uint(m) index                 (m <= TABLE_CAP)
           | uint(m) COMP                  (m > TABLE_CAP: the connected part
                                            graph, of m nodes, written by
                                            write_part_contour_into)
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
layer, from the actual stream — not from a re-encode.  ``encode`` runs it on
its own container with its input as the source: the parsed rows are
compared with the input relabeled, and are not built into a graph.  The
input passed ``euler`` and the class predicate, and relabeling keeps both,
so this check is no weaker than decode's, and it also catches a wrong
labeling.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import separation  # level_schedule, read as build_separations reads it
from .bits import BitReader, BitWriter
from .constants import FORMAT_VERSION, MAGIC, MAX_LEVELS, MAX_NODES, TABLE_CAP
from .embgraph import (
    EmbeddedGraph,
    canonical_labeling,
    read_contour,
    triangulate,  # unused; bench/spans.py traces it by name (ROADMAP item 1)
    write_part_contour_into,
)
from .errors import ChecksFailed, CodecError, InvalidEmbedding, NotInClass
from .patcher import (
    apply_fix,  # unused; bench/spans.py traces it by name (ROADMAP item 1)
    complete,  # unused; bench/spans.py traces it by name (ROADMAP item 1)
)
from .recovery import PartView, decode_level_from, encode_level
from .separation import Scratch, build_separations
from .table import CLASS_ORDER, ClassTable, build_table, get_class, read_table

__all__ = ["EncodeResult", "Stats", "decode", "encode", "stats"]


@dataclass(frozen=True)
class Stats:
    """Where a container's bits went, from parsing the actual stream.

    ``part_sizes``/``part_widths`` list every finest part written, across
    all components: its node count m and the bits of its code after the
    size field (a table index, or a contour code with its flag and edge
    count).  ``covered_nodes`` sums the node counts of the fine part graphs
    those codes decode to.  ``levels`` is the level count per component body
    (0 = the component is one part).  No part carries a fix, so
    ``fix_bits`` is always 0; it stays because ``bench/checks.py`` reads it
    (ROADMAP item 1).
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
    genus, ncomp = g.euler()
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

    # Only a disconnected input is searched for its components.
    comps = [list(range(g.n))] if ncomp == 1 else g.components()
    labeling = [0] * g.n
    offset = 0
    scratch = None  # built for the first component with a level
    for nodes in comps:
        if len(nodes) <= TABLE_CAP or not separation.level_schedule(len(nodes)):
            w.write_uint(0)  # no level: the component is one part
            # A component has no neighborhood.
            order = _encode_part(w, g, nodes, (), table).ids
        else:
            # Every component is separated in place, on the input itself.
            if scratch is None:
                scratch = Scratch(g)
            order = _encode_body(w, g, nodes, table, genus, scratch)
        for pos, node in enumerate(order):
            labeling[node] = offset + pos
        offset += len(order)
    data = w.build().to_bytes()
    st = stats(data, cache_dir=cache_dir, _source=(g, labeling))
    if (st.n, st.class_name, st.genus, st.components) != (g.n, class_name, genus, ncomp):
        raise ChecksFailed("container header does not match the input")
    return EncodeResult(data, labeling, st)


def _encode_body(
    w: BitWriter,
    g: EmbeddedGraph,
    nodes: list[int],
    table: ClassTable,
    genus: int,
    scratch: Scratch,
) -> list[int]:
    """Write one connected component of ``g``, its sorted ``nodes``, above
    the table cap on which at least one level binds: its finest parts, then
    one recovery stream per level.  Returns its nodes in decoded order.

    The separations are built on ``g`` itself, which every part and
    recovery stream is read from; ``scratch`` is ``g``'s.  The finest one
    is the last level of ``build_separations``.  ``genus`` is the whole
    input's, which bounds the component's."""
    seps = build_separations(g, nodes, genus, scratch)
    nlevels = len(seps) - 1
    parts = seps[-1].parts[1:]
    w.write_uint(nlevels)
    w.write_uint(len(parts))
    views = []
    nbrs = [g.neighbors_of_set(part) for part in parts]
    for i, part in enumerate(parts):
        try:
            views.append(_encode_part(w, g, part, nbrs[i], table))
        except ChecksFailed as exc:
            raise ChecksFailed(f"finest part {i} ({len(part)} nodes): {exc}") from exc
    for k in range(nlevels, 0, -1):
        if k < nlevels:  # a coarser level gathers its own parts' neighborhoods
            nbrs = [g.neighbors_of_set(part) for part in seps[k].parts[1:]]
        views = encode_level(w, seps[k - 1], seps[k], views, nbrs)
    return views[0].ids


def _encode_part(
    w: BitWriter,
    g: EmbeddedGraph,
    part: list[int],
    nbrs,
    table: ClassTable,
) -> PartView:
    """Write one finest-level part, whose neighborhood in ``g`` is
    ``nbrs``, and return its recovery view.

    A part graph (the part with its neighborhood) above the table cap is
    written as its contour code straight off the host's darts
    (``write_part_contour_into``), and its view follows the code's DFS
    preorder.  Only a part graph within the cap is read off the host as
    rotation rows (``part_rows``), built from them and canonically
    relabeled, which is the one canonical labeling the table lookup needs;
    its view follows that labeling.

    Every part graph is connected (the module docstring says why), so it is
    a member of the table as it is: a plane triangulation's small part is
    a connected plane graph, and a forest's a plane tree.
    """
    if len(part) + len(nbrs) > TABLE_CAP:  # a contour part
        order, boundary = write_part_contour_into(w, g, part, nbrs)
        return PartView(boundary, order)
    ids, bnd, rows = g.part_rows(part)
    h = EmbeddedGraph.from_rotations(rows)
    lab = canonical_labeling(h)
    try:
        m, idx = table.index_of(h.relabel(lab))
    except NotInClass as exc:
        raise ChecksFailed(f"pipeline produced an unusable table member: {exc}") from exc
    w.write_uint(m)
    w.write_uint_bits(idx, table.width(m))
    ids_v = [0] * m
    for local, x in enumerate(lab):
        ids_v[x] = ids[local]
    return PartView(frozenset(lab[local] for local in bnd), ids_v)


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
    rows, st = _parse(data, cache_dir)
    return _build(rows, st)


def stats(data: bytes, *, cache_dir=None, _source=None) -> Stats:
    """Parse a container and report its exact bit layout (see Stats).  The
    container is validated as ``decode`` validates it.

    ``encode`` passes its input as ``_source=(g, labeling)``: the decoded
    rows are then checked against ``g.relabel(labeling)`` instead of being
    built into a graph (``_check_source``)."""
    rows, st = _parse(data, cache_dir)
    if _source is None:
        _build(rows, st)
    else:
        _check_source(rows, *_source)
    return st


def _parse(data: bytes, cache_dir) -> tuple[list[list[int]], Stats]:
    """Parse a container to its decoded rotation rows, one per node, and its
    Stats.  Every field is checked as it is read; the rows are not yet
    checked to form an embedding."""
    r = BitReader(data)
    acc = {
        "header": 0,
        "table": 0,
        "part_code": 0,
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
        # stream before it runs out of memory.  Bodies are laid out one
        # after another, each labeled past the ones before it.
        rows: list[list[int]] = []
        for _ in range(ncomp):
            rows += _decode_body(r, table, acc, len(rows))

        pad = r.remaining
        if pad >= 8 or (pad and r.read_uint_bits(pad) != 0):
            raise CodecError("trailing data after container")

        if len(rows) != n:
            raise CodecError("decoded node count does not match the header")
    except CodecError:
        raise
    except IndexError as exc:
        # BitReader raises CodecError on past-end reads; IndexError here means
        # a count sent a lookup out of range before validation caught it.
        raise CodecError(f"malformed container: {exc}") from exc

    total = len(r)
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
        - acc["recovery"]
        - pad,
        part_code_bits=acc["part_code"],
        fix_bits=0,
        recovery_bits=acc["recovery"],
        padding_bits=pad,
        total_bits=total,
    )
    return rows, st


def _build(rows: list[list[int]], st: Stats) -> EmbeddedGraph:
    """The container's one graph, built from its decoded rows, checked to
    be an embedding with the header's genus and component count that the
    header's class admits."""
    try:
        graph = EmbeddedGraph.from_rotations(rows)
    except InvalidEmbedding as exc:
        raise CodecError(f"decoded rotation rows are not an embedding: {exc}") from exc
    genus, ncomp = graph.euler()
    if ncomp != st.components:
        raise CodecError("decoded component count does not match the header")
    if genus != st.genus:
        raise CodecError("decoded genus does not match the header")
    if not get_class(st.class_name).admits(graph, genus, ncomp):
        raise CodecError("decoded graph fails the class predicate")
    return graph


def _check_source(rows: list[list[int]], g: EmbeddedGraph, labeling: list[int]) -> None:
    """Check that the decoded rows are ``g.relabel(labeling)``: the labeling
    is a bijection onto the rows, and each row ``rows[labeling[v]]`` is v's
    rotation mapped through the labeling, up to where the cyclic row starts.
    Raises ChecksFailed on a mismatch.

    ``encode`` checked ``g`` with ``euler`` and the class predicate, and a
    relabeling by a bijection keeps the embedding, its genus, its components
    and its class, so rows that pass pass every check ``_build`` makes, with
    no graph built."""
    n = len(rows)
    if len(labeling) != n or set(labeling) != set(range(n)):
        raise ChecksFailed("labeling is not a bijection onto the decoded nodes")
    # With one entry per dart in all, no row can match a rotation twice over.
    if sum(map(len, rows)) != len(g.node_of):
        raise ChecksFailed("decoded rows do not hold one entry per dart of the input")
    nxt, first = g.nxt, g.first
    tail = [labeling[v] for v in g.node_of]
    head = tail[:]  # head[d]: the label of the node dart d points to
    head[0::2] = tail[1::2]
    head[1::2] = tail[0::2]
    for v, x in enumerate(labeling):
        row = rows[x]
        d0 = d = first[v]
        if d0 < 0 or head[d0] not in row:
            if row or d0 >= 0:
                raise ChecksFailed(f"decoded row {x} differs from node {v}'s rotation")
            continue
        i = row.index(head[d0])
        for y in row[i:] + row[:i]:
            if y != head[d]:
                break
            d = nxt[d]
        else:
            if d == d0:
                continue
        raise ChecksFailed(f"decoded row {x} differs from node {v}'s rotation")


def _decode_body(
    r: BitReader, table: ClassTable, acc: dict, offset: int = 0
) -> list[list[int]]:
    """One component body as rotation rows whose labels start at
    ``offset``: its fine parts, then the level streams that splice them,
    level by level, into one piece.  The last level writes its labels at the
    offset.  A body without levels is its one part, shifted row by row: an
    encoder writes one only for a component on which no level binds, of at
    most 72 nodes."""
    nlevels = r.read_uint()
    if nlevels > MAX_LEVELS:
        raise CodecError("level count out of range")
    acc["levels"].append(nlevels)
    npieces = r.read_uint() if nlevels else 1
    if npieces > MAX_NODES:
        raise CodecError("part count out of range")
    pieces = [_decode_part(r, table, acc) for _ in range(npieces)]
    mark = r.pos
    for k in range(nlevels, 0, -1):
        pieces = decode_level_from(r, pieces, offset if k == 1 else 0)
    acc["recovery"] += r.pos - mark
    if len(pieces) != 1:
        raise CodecError("body does not reduce to a single piece")
    body = pieces[0]
    if not body:
        raise CodecError("empty component body")
    if offset and not nlevels:
        return [[v + offset for v in row] for row in body]
    return body


def _decode_part(r: BitReader, table: ClassTable, acc: dict) -> list[list[int]]:
    """One PART as rotation rows: its size m picks the coder, a table index
    up to the table cap, a contour code above it.  A contour code is
    checked for balance and node count here; its rows are validated with
    the container's graph."""
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
        rows = table.member_graph(m, r.read_uint_bits(width)).to_rotations()
    acc["part_code"] += width
    acc["part_sizes"].append(m)
    acc["part_widths"].append(width)
    acc["covered"] += len(rows)
    return rows
