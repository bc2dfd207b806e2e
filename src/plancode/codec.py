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

The decoder needs no separation machinery, and no rotation rows: it
rebuilds the fine parts as half-edge arrays ``(node_of, nxt, first)``, with
twins ``d ^ 1`` (a contour part is read straight into them, and a table
member is the arrays of its parsed graph), then replays the recovery
streams level by level, each turning one level's arrays into the next.  A
body's ``node_of`` holds labels past the bodies before it: the last level
of a body writes them at the body's node offset as it relabels, and only a
body without levels (at most 72 nodes as encoders write it) is relabeled
after.  The bodies' darts are shifted past the darts before them as
``_parse`` joins them.  The container's one graph is made from the joined
arrays and checked once to be a simple rotation system (``_build``).  No
part or piece is built as a graph of its own: a contour code that parses
but carries a self-loop or a repeated edge surfaces there.

The table is the one of the class's ``table_class``, and holds connected
members only: every plane class codes its small parts against the
``plane-connected`` table, and forests against the plane trees of the
``forest-deg5`` table.  A small part graph is a table member as it is, so
no part is completed into a member and no part carries a fix.

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
its own container with its input as the source: each decoded node's cycle
is walked against the input's rotation relabeled, and no graph is built.
The input passed ``euler`` and the class predicate, and relabeling keeps
both, so this check is no weaker than decode's, and it also catches a wrong
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
    write_part_contour_into,
)
from .errors import ChecksFailed, CodecError, NotInClass
from .recovery import PartView, decode_level_from, encode_level, shifted
from .separation import Scratch, build_separations
from .table import CLASS_ORDER, ClassTable, build_table, get_class, read_table

__all__ = ["EncodeResult", "Stats", "decode", "encode", "stats"]

# The codec neither triangulates its input nor completes a part, so it calls
# none of these.  ``bench/spans.py`` still looks each name up here to trace
# it, and its spans read 0 (ROADMAP item 15).
triangulate = complete = apply_fix = None


@dataclass(frozen=True)
class Stats:
    """Where a container's bits went, from parsing the actual stream.

    ``part_sizes``/``part_widths`` list every finest part written, across
    all components: its node count m and the bits of its code after the
    size field (a table index, or a contour code with its flag and edge
    count).  ``covered_nodes`` sums the node counts of the fine part graphs
    those codes decode to.  ``levels`` is the level count per component body
    (0 = the component is one part).  No part carries a fix, so
    ``fix_bits`` is always 0; it stays only because ``bench/checks.py``
    reads it (ROADMAP item 15).
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
    darts, st = _parse(data, cache_dir)
    return _build(darts, st)


def stats(data: bytes, *, cache_dir=None, _source=None) -> Stats:
    """Parse a container and report its exact bit layout (see Stats).  The
    container is validated as ``decode`` validates it.

    ``encode`` passes its input as ``_source=(g, labeling)``: the decoded
    arrays are then checked against ``g.relabel(labeling)`` instead of being
    built into a graph (``_check_source``)."""
    darts, st = _parse(data, cache_dir)
    if _source is None:
        _build(darts, st)
    else:
        _check_source(darts, *_source)
    return st


def _parse(data: bytes, cache_dir) -> tuple[tuple[list, list, list], Stats]:
    """Parse a container to its decoded half-edge arrays ``(node_of, nxt,
    first)`` and its Stats.  Every field is checked as it is read, and every
    node's darts lie on one cycle of ``nxt``; the arrays are not yet checked
    to form a simple rotation system."""
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
        # after another, each labeled past the ones before it, and their
        # darts follow the darts before them.
        node_of: list[int] = []
        nxt: list[int] = []
        first: list[int] = []
        for _ in range(ncomp):
            b_node_of, b_nxt, b_first = _decode_body(r, table, acc, len(first))
            if not first:  # the first body: its arrays are the container's
                node_of, nxt, first = b_node_of, b_nxt, b_first
                continue
            base = len(node_of)
            node_of += b_node_of
            nxt += [d + base for d in b_nxt]
            first += shifted(b_first, base)

        pad = r.remaining
        if pad >= 8 or (pad and r.read_uint_bits(pad) != 0):
            raise CodecError("trailing data after container")

        if len(first) != n:
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
    return (node_of, nxt, first), st


def _build(darts: tuple[list, list, list], st: Stats) -> EmbeddedGraph:
    """The container's one graph, made from its decoded half-edge arrays,
    checked to be an embedding with the header's genus and component count
    that the header's class admits.

    First the arrays must form a simple rotation system: each dart lies on
    exactly one cycle of ``nxt``, that of its own node, and no node's cycle
    meets a head twice or the node itself.  Walking each node's cycle from
    its ``first`` dart, a dart of another node or a repeated head stops the
    walk, so the cycles are disjoint and each walk is bounded; the count of
    darts walked then covers every dart.  Twins are ``d ^ 1`` by
    construction, so every edge is in both its endpoints' rotations."""
    node_of, nxt, first = darts
    met = [-1] * len(first)  # met[h] == v: v's cycle has a dart to h
    walked = 0
    try:
        for v, d0 in enumerate(first):
            if d0 < 0:
                continue
            met[v] = v
            d = d0
            while True:
                if node_of[d] != v:
                    raise CodecError(f"decoded node {v}'s cycle holds another node's dart")
                h = node_of[d ^ 1]
                if met[h] == v:
                    if h == v:
                        raise CodecError(f"decoded graph has a self-loop at node {v}")
                    raise CodecError(f"decoded graph repeats neighbor {h} at node {v}")
                met[h] = v
                walked += 1
                d = nxt[d]
                if d == d0:
                    break
    except IndexError:
        raise CodecError("decoded darts name a node or dart out of range") from None
    if walked != len(node_of):
        raise CodecError("decoded darts lie on no node's cycle")
    graph = EmbeddedGraph()
    graph.n = len(first)
    graph.node_of, graph.nxt, graph.first = node_of, nxt, first
    genus, ncomp = graph.euler()
    if ncomp != st.components:
        raise CodecError("decoded component count does not match the header")
    if genus != st.genus:
        raise CodecError("decoded genus does not match the header")
    if not get_class(st.class_name).admits(graph, genus, ncomp):
        raise CodecError("decoded graph fails the class predicate")
    return graph


def _check_source(
    darts: tuple[list, list, list], g: EmbeddedGraph, labeling: list[int]
) -> None:
    """Check that the decoded arrays are ``g.relabel(labeling)``: the
    labeling is a bijection onto the decoded nodes, and the cycle of each
    decoded node ``labeling[v]`` is v's rotation mapped through the
    labeling, up to where it starts.  Raises ChecksFailed on a mismatch.

    Each step checks that the decoded dart lies at its node and points
    where the input's does.  ``g`` is simple, so the heads of a rotation
    differ and each walk meets distinct darts; the nodes' cycles are
    disjoint, and with as many darts as ``g`` has, they cover every dart.
    ``encode`` checked ``g`` with ``euler`` and the class predicate, and a
    relabeling by a bijection keeps the embedding, its genus, its components
    and its class, so arrays that pass pass every check ``_build`` makes,
    with no graph built."""
    dnode, dnxt, dfirst = darts
    n = len(dfirst)
    if len(labeling) != n or set(labeling) != set(range(n)):
        raise ChecksFailed("labeling is not a bijection onto the decoded nodes")
    if len(dnode) != len(g.node_of):
        raise ChecksFailed("decoded arrays do not hold one entry per dart of the input")
    nxt, first = g.nxt, g.first
    tail = [labeling[v] for v in g.node_of]
    head = tail[:]  # head[d]: the label of the node dart d points to
    head[0::2] = tail[1::2]
    head[1::2] = tail[0::2]
    for v, x in enumerate(labeling):
        d0 = first[v]
        e = dfirst[x]
        if d0 < 0 or e < 0:
            if d0 != e:
                raise _differs(x, v)
            continue
        # Find the decoded dart that points where d0 does, within one turn.
        want = head[d0]
        d = d0
        while dnode[e ^ 1] != want:
            e = dnxt[e]
            d = nxt[d]
            if d == d0:
                raise _differs(x, v)
        d = d0
        e0 = e
        while True:
            if dnode[e] != x or dnode[e ^ 1] != head[d]:
                raise _differs(x, v)
            d = nxt[d]
            e = dnxt[e]
            if d == d0:
                break
        if e != e0:
            raise _differs(x, v)


def _differs(x: int, v: int) -> ChecksFailed:
    return ChecksFailed(f"decoded node {x} differs from node {v}'s rotation")


def _decode_body(
    r: BitReader, table: ClassTable, acc: dict, offset: int = 0
) -> tuple[list, list, list]:
    """One component body as half-edge arrays whose node labels start at
    ``offset``: its fine parts, then the level streams that splice them,
    level by level, into one piece.  The last level writes its labels at the
    offset.  A body without levels is its one part, relabeled in one pass:
    an encoder writes one only for a component on which no level binds, of
    at most 72 nodes.  Its darts start at 0."""
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
    node_of, nxt, first = pieces[0]
    if not first:
        raise CodecError("empty component body")
    if offset and not nlevels:
        return [v + offset for v in node_of], nxt, first
    return node_of, nxt, first


def _decode_part(r: BitReader, table: ClassTable, acc: dict) -> tuple[list, list, list]:
    """One PART as half-edge arrays ``(node_of, nxt, first)``: its size m
    picks the coder, a table index up to the table cap, a contour code
    above it.  A contour code is checked for balance and node count here;
    its arrays are validated with the container's graph."""
    start = r.pos
    m = r.read_uint()
    if m == 0:
        raise CodecError("empty part")
    mark = r.pos
    if m > TABLE_CAP:
        r.pos = start
        darts = read_contour(r)
        width = r.pos - mark
    else:
        width = table.width(m)
        h = table.member_graph(m, r.read_uint_bits(width))
        darts = h.node_of, h.nxt, h.first
    acc["part_code"] += width
    acc["part_sizes"].append(m)
    acc["part_widths"].append(width)
    acc["covered"] += len(darts[2])
    return darts
