"""Container codec: whole graphs to bytes and back.

The encoder cuts each component of the input along a nested separation
hierarchy, encodes the finest parts as indices into a class table (completed
into members by a patcher where the class needs it, with the fix serialized
alongside), and stores one recovery stream per hierarchy level that splices
the parts back together.  The decoder needs no separation machinery: it
rebuilds the fine part graphs from the table and the fixes, then replays the
recovery streams level by level.

The table is the one of the class's ``table_class``: plane triangulations
code their parts (and their single-code components) against the
``plane-connected`` table, every other class against its own.

Container layout (bit-level; every field is self-delimiting in read order)::

    magic(24) uint(version) inline_flag(1) uint(class) uint(n) uint(genus)
    uint(components) TABLE BODIES zero-padding-to-byte

    TABLE  = serialized table of the table class   (inline_flag = 1)
           | uint(cap)                     (inline_flag = 0; decoder builds it;
                                            cap = BYPASS_CAP)
    BODIES = nothing                       (0 components)
           | BODY                          (1 component)
           | segmented concat of BODYs     (else, in ascending min-node order)
    BODY   = uint(0) uint(m) index         (component small enough for one code)
           | uint(K) uint(P) P x PART, then K level streams, finest first
             (P = 0 when the finest level leaves the whole component in
             the center)
    PART   = uint(m) index [FIX]           (FIX only for the "connect" patch)
    FIX    = uint(a) uint(e) a x label, e x (label label)
             labels are bitlen(m-1) wide; nodes ascending, edges (small,
             large) lexicographically ascending

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

from .bits import (
    BitReader,
    BitString,
    BitWriter,
    ceil_log2,
    read_segmented,
    write_segmented,
)
from .constants import (
    BYPASS_CAP,
    DEFAULT_MAX_GENUS,
    FORMAT_VERSION,
    MAGIC,
    MAX_LEVELS,
    MAX_NODES,
)
from .embgraph import EmbeddedGraph, canonical_labeling, disjoint_union, triangulate
from .errors import (
    ChecksFailed,
    CapTooLarge,
    CodecError,
    GenusTooLarge,
    NotInClass,
)
from .patcher import Fix, apply_fix, complete
from .recovery import PartView, decode_level_from, encode_level
from .separation import build_separations
from .table import CLASS_ORDER, ClassTable, build_table, get_class, read_table

__all__ = ["EncodeResult", "Stats", "decode", "encode", "stats"]


@dataclass(frozen=True)
class Stats:
    """Where a container's bits went, from parsing the actual stream.

    ``part_sizes``/``part_widths`` list every table code written (member node
    count and index width), across all components, bypassed components
    included.  ``covered_nodes`` sums the node counts of the fine part graphs
    those codes (after fixes) decode to.  ``levels`` is the level count per
    component body (0 = single table code).
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
    max_genus: int = DEFAULT_MAX_GENUS,
    cache_dir=None,
) -> EncodeResult:
    """Encode an embedded graph as a member of the named class.

    The parts are coded against the class's standard table (its size cap is
    ``BYPASS_CAP``), built or loaded with ``build_table`` from
    ``cache_dir``.  With ``inline_table`` the container carries that table;
    without it the container names the table by its cap and the decoder
    builds its own copy.

    Raises GenusTooLarge when the embedding's genus exceeds ``max_genus`` and
    NotInClass when the graph fails the class predicate.
    """
    cls = get_class(class_name)
    genus, ncomp = g.euler()
    if genus > max_genus:
        raise GenusTooLarge(
            f"embedding has genus {genus}, above the limit {max_genus}"
        )
    if not cls.admits(g, genus, ncomp):
        raise NotInClass(f"graph is not a member of class {class_name}")
    table = build_table(class_name, cache_dir=cache_dir)

    comps = g.components()
    labeling = [0] * g.n
    bodies: list[BitString] = []
    offset = 0
    for nodes in comps:
        sub, ids = g.induced(nodes)
        body, lab_local = _encode_body(sub, cls, table)
        bodies.append(body)
        for local, node in enumerate(ids):
            labeling[node] = offset + lab_local[local]
        offset += sub.n

    w = BitWriter()
    w.write_uint_bits(MAGIC, 24)
    w.write_uint(FORMAT_VERSION)
    w.write_bit(1 if inline_table else 0)
    w.write_uint(CLASS_ORDER.index(class_name))
    w.write_uint(g.n)
    w.write_uint(genus)
    w.write_uint(len(comps))
    if inline_table:
        w.write_bits(table.serialize())
    else:
        w.write_uint(table.cap)
    if len(bodies) == 1:
        w.write_bits(bodies[0])
    elif bodies:
        write_segmented(w, bodies)
    data = w.build().to_bytes()
    return EncodeResult(data, labeling, stats(data, cache_dir=cache_dir))


def _encode_body(
    sub: EmbeddedGraph, cls, table: ClassTable
) -> tuple[BitString, list[int]]:
    """One connected component: either a single table code or the pipeline.
    Returns (body bits, local labeling to the decoded layout)."""
    w = BitWriter()
    if sub.n <= table.cap:
        lab = canonical_labeling(sub)
        m, idx = _member_index(table, sub.relabel(lab))
        w.write_uint(0)
        w.write_uint(m)
        w.write_uint_bits(idx, table.width(m))
        return w.build(), lab

    seps = build_separations(triangulate(sub))
    # Once a level puts the whole host in the center, every later level is
    # the same separation again: stop at the first level without parts.
    while len(seps) > 2 and seps[-2].p == 0:
        seps.pop()
    nlevels = len(seps) - 1
    parts = seps[-1].parts[1:]
    views: list[PartView] = []
    records: list[tuple[int, int, Fix]] = []
    for part in parts:
        view, record = _encode_part(sub, part, cls, table)
        views.append(view)
        records.append(record)

    w.write_uint(nlevels)
    w.write_uint(len(parts))
    for m, idx, fix in records:
        w.write_uint(m)
        w.write_uint_bits(idx, table.width(m))
        if cls.patch != "none":
            _write_fix(w, fix, m)
    for k in range(nlevels, 0, -1):
        bits, views = encode_level(sub, seps[k - 1], seps[k], views)
        w.write_bits(bits)

    top = views[0]
    lab_local = [0] * sub.n
    for pos, node in enumerate(top.ids):
        lab_local[node] = pos
    return w.build(), lab_local


def _encode_part(
    sub: EmbeddedGraph, part: list[int], cls, table: ClassTable
) -> tuple[PartView, tuple[int, int, Fix]]:
    """Turn one finest-level part into (recovery view, table record).

    The part graph is completed into a member of the table class and
    canonically relabeled, which is the one canonical labeling the table
    lookup needs, and the fix is translated along.  The view labels the graph
    the decoder will rebuild, the member with the fix applied: the member
    labels that survive the fix, compacted in ascending order.

    A plane triangulation's part graphs are connected plane graphs, members
    of its table class as they are: at the finest (mop-up) level only nodes
    of degree 3 stay out of the center, for n >= 5 no two of them are
    adjacent, and ``triangulate`` adds no chord to a triangulation, so every
    part graph is a node with its three neighbors.
    """
    pg = sub.part_graph(part)
    ids, bnd = pg.ids, pg.boundary
    h, fix = complete(pg.graph, cls.patch)
    lab = canonical_labeling(h)
    member = h.relabel(lab)
    m, idx = _member_index(table, member)
    mfix = fix.relabeled(lab)
    n = len(ids)
    if member.n - len(mfix.added_nodes) != n:
        raise ChecksFailed("fix does not restore the part graph's node count")
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
    return PartView(frozenset(boundary), ids_v), (m, idx, mfix)


def _member_index(table: ClassTable, g: EmbeddedGraph) -> tuple[int, int]:
    """Table position of a canonically labeled member (found without a
    second canonical labeling)."""
    try:
        return table.index_of(g)
    except (NotInClass, CapTooLarge) as exc:
        raise ChecksFailed(f"pipeline produced an unusable table member: {exc}") from exc


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
            table = read_table(r)
            if table.name != cls.table_class:
                raise CodecError("inline table is for a different class")
        else:
            cap = r.read_uint()
            # No cap above the standard one may be demanded: building the
            # standard table is cheap and cached, so a hostile container
            # cannot make the decoder enumerate a large class.
            if not 1 <= cap <= BYPASS_CAP:
                raise CodecError(f"referenced table cap {cap} unsupported")
            table = build_table(class_name, cap, cache_dir=cache_dir)
        acc["table"] = r.pos - mark

        pieces: list[EmbeddedGraph] = []
        if ncomp == 1:
            pieces.append(_decode_body(r, cls, table, acc))
        elif ncomp > 1:
            bodies = read_segmented(r)
            if len(bodies) != ncomp:
                raise CodecError("segment count does not match component count")
            for body in bodies:
                br = BitReader(body)
                pieces.append(_decode_body(br, cls, table, acc))
                if br.remaining:
                    raise CodecError("trailing bits in component body")

        pad = r.remaining
        if pad >= 8 or (pad and r.read_uint_bits(pad) != 0):
            raise CodecError("trailing data after container")

        graph = disjoint_union(pieces)
        if graph.n != n:
            raise CodecError("decoded node count does not match the header")
        graph_genus, graph_ncomp = graph.euler()
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
        # Everything that is not payload, table, header, or padding: segment
        # framing, level/part counts, and member size headers.
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
    nlevels = r.read_uint()
    if nlevels > MAX_LEVELS:
        raise CodecError("level count out of range")
    acc["levels"].append(nlevels)
    if nlevels == 0:
        m = _read_member_size(r, table)
        graph = _read_member(r, table, m, acc)
        acc["covered"] += graph.n
        if not graph.connected:
            raise CodecError("component body decodes to a disconnected graph")
        return graph

    npieces = r.read_uint()
    if npieces > MAX_NODES:
        raise CodecError("part count out of range")
    fines: list[EmbeddedGraph] = []
    for _ in range(npieces):
        m = _read_member_size(r, table)
        member = _read_member(r, table, m, acc)
        if cls.patch != "none":
            mark = r.pos
            fix = _read_fix(r, m)
            acc["fix"] += r.pos - mark
            fine = apply_fix(member, fix)
        else:
            fine = member
        acc["covered"] += fine.n
        fines.append(fine)

    mark = r.pos
    for _ in range(nlevels):
        fines = decode_level_from(r, fines)
    acc["recovery"] += r.pos - mark
    if len(fines) != 1:
        raise CodecError("body does not reduce to a single piece")
    piece = fines[0]
    if not piece.connected:
        raise CodecError("component body decodes to a disconnected graph")
    return piece


def _read_member_size(r: BitReader, table: ClassTable) -> int:
    m = r.read_uint()
    if not 1 <= m <= table.cap:
        raise CodecError(f"member size {m} outside the table range")
    return m


def _read_member(r: BitReader, table: ClassTable, m: int, acc: dict) -> EmbeddedGraph:
    width = table.width(m)
    idx = r.read_uint_bits(width)
    acc["part_code"] += width
    acc["part_sizes"].append(m)
    acc["part_widths"].append(width)
    return table.member_graph(m, idx)


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

