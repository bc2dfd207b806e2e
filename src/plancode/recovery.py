"""Reassembly of coarse part graphs from finer ones, one hierarchy level at a time.

A separation hierarchy cuts the host graph into nested node sets.  At each
level the encoder stores, per coarse piece, just enough to rebuild that piece
from its already-decoded finer pieces:

* a **skeleton**: the rotation rows of the kernel nodes (nodes of the piece
  that belong to no finer part) and of the piece's outside boundary,
  restricted to edges that do not enter a finer part;
* a **boundary map** per finer part, naming which coarse node each of the
  part's boundary nodes is; and
* **splice triples** ``(x, a, b)`` that say how the rotation fragments of a
  node ``x`` — one fragment per finer part that borders ``x`` plus its
  skeleton row — interleave into x's single cyclic rotation: ``a`` ends a
  contiguous run and ``b`` starts the next.

Every piece uses one label space with three zones: kernel nodes first
(ascending host id), then interiors of the finer parts (part index then fine
label, ascending), then the outside boundary (ascending host id).  Label
width for a piece of ``node`` nodes is ``bitlen(node - 1)``.

Per-piece stream layout (all widths derivable in read order)::

    uint(#parts) uint(#kernel) uint(#interior) uint(#boundary)
    for each kernel/boundary node: uint(deg) deg x label
    for each part: uint(#rows) rows of (fine-label, coarse-label)
    uint(#triples) triples of (x, a, b)

A level's stream is ``uint(#pieces)`` followed by the pieces in order.
Label runs (skeleton rows, boundary maps, splice triples) are read and
written with the ``bits`` run kernels, which take runs of width 1, 2 or 4
(the labels of pieces of 2, 3 to 4 and 9 to 16 nodes) through byte tables;
a boundary-map row is one value of both widths, the same bits as its two
fields.

The decoder takes the finer parts as half-edge arrays ``(node_of, nxt,
first)`` and returns each coarse piece in that form: it builds no graph and
no rotation rows.  A part's darts keep their twins (``d ^ 1``): they are
shifted by an even offset, and ``node_of`` is relabeled in one pass through
the part's label map.  The interior nodes, whose labels run in the part's
ascending order, take their ``first`` darts as whole slices.  Each boundary
node's darts in the part form a cell of its node's rotation; only the
skeleton entries are paired into new edges, through a dict over the
skeleton alone, and a splice links the cells of a node at their run ends.
Its checks keep every label in range and every node's darts on one cycle
of ``nxt``, so the arrays stay well formed from level to level; whether
they form a simple rotation system is checked once, when the caller builds
the whole graph from them.  The caller may give an offset, which the last
level of a body uses to write its labels where the body sits among the
container's nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bits import BitReader, BitWriter, ceil_log2
from .constants import MAX_NODES
from .embgraph import EmbeddedGraph, anchored
from .errors import ChecksFailed, CodecError
from .separation import Separation

__all__ = ["PartView", "encode_level", "decode_level_from"]


@dataclass(frozen=True)
class PartView:
    """Where a part graph sits in the host, by labels alone.

    ``ids`` names the host node of each local label of the part graph, and
    ``boundary`` holds the local labels of its outside-boundary nodes.  The
    encoder never needs the part graph itself: the bits depend only on these
    labels, and the decoder rebuilds the graph.
    """

    boundary: frozenset
    ids: list

    def __post_init__(self) -> None:
        n = self.n
        if len(set(self.ids)) != n:
            raise ValueError("ids must name each local label exactly once")
        if not all(0 <= b < n for b in self.boundary):
            raise ValueError("boundary labels out of range")

    @property
    def n(self) -> int:
        return len(self.ids)

    def interior(self) -> list:
        """Local labels of non-boundary nodes, ascending."""
        return [v for v in range(self.n) if v not in self.boundary]


def encode_level(
    w: BitWriter, prev: Separation, sep: Separation, views: list, nbrs: list
) -> list:
    """Write one hierarchy level of the separations' host, ``sep.host``,
    into ``w``.

    ``sep`` refines ``prev`` on that host, which is the graph coded: no
    other graph is read.  ``views[i]`` is the PartView of
    ``sep.parts[i + 1]`` in it, and ``nbrs[i]`` that part's neighborhood,
    ``sep.host.neighbors_of_set(sep.parts[i + 1])``, which the caller has
    gathered: each view's boundary is checked against it.  Returns the
    PartViews of ``prev``'s parts, which feed the next (coarser) level.
    Only labels pass between levels: the coarse part graphs are rebuilt by
    the decoder alone.
    """
    if len(views) != sep.p or len(nbrs) != sep.p:
        raise ChecksFailed("need exactly one view and one neighborhood per fine part")
    groups: list = [[] for _ in range(prev.p + 1)]
    last = 0
    for i in range(1, sep.p + 1):
        j = sep.prev_part[i]
        if not 1 <= j <= prev.p or j < last:
            raise ChecksFailed("fine parts must be grouped by coarse part, in order")
        last = j
        groups[j].append(i)
    center = set(sep.parts[0])
    w.write_uint(prev.p)
    out = []
    for j in range(1, prev.p + 1):
        items = [(views[i - 1], sep.parts[i], nbrs[i - 1]) for i in groups[j]]
        out.append(_encode_piece(w, sep.host, prev.parts[j], center, items))
    return out


def _encode_piece(
    w: BitWriter,
    g: EmbeddedGraph,
    u_nodes: list,
    center: set,
    items: list,
) -> PartView:
    """Encode one coarse piece and return its PartView.  ``items`` holds
    (view, nodes, neighborhood) per fine part of the piece."""
    u_set = set(u_nodes)
    w_ids = sorted(v for v in u_nodes if v in center)
    # the piece's outside neighborhood, gathered from its kernel's and its
    # parts' neighborhoods
    outside = g.neighbors_of_set(w_ids)
    int_ids: list = []
    int_part: list = []
    for q, (pv, part_nodes, part_nbrs) in enumerate(items):
        pset = set(part_nodes)
        if not pset <= u_set:
            raise ChecksFailed("fine part leaks outside its coarse part")
        ib = pv.interior()
        if {pv.ids[v] for v in ib} != pset:
            raise ChecksFailed("view interior does not match its part")
        if {pv.ids[v] for v in pv.boundary} != part_nbrs:
            raise ChecksFailed("view boundary does not match the part's neighborhood")
        outside |= part_nbrs
        int_ids.extend(pv.ids[v] for v in ib)
        int_part.extend([q] * len(ib))
    nw, nv = len(w_ids), len(int_ids)
    if len(set(w_ids) | set(int_ids)) != nw + nv or set(w_ids) | set(int_ids) != u_set:
        raise ChecksFailed("kernel and part interiors must partition the piece")
    nbr_ids = sorted(outside - u_set)
    ids = w_ids + int_ids + nbr_ids
    label_of = {h: i for i, h in enumerate(ids)}
    nb = len(nbr_ids)
    node = nw + nv + nb
    width = ceil_log2(node)
    w.write_uint(len(items))
    w.write_uint(nw)
    w.write_uint(nv)
    w.write_uint(nb)

    # Full restricted rotations of kernel and boundary nodes in this piece.
    node_of, nxt = g.node_of, g.nxt
    rows: dict = {}
    for x in w_ids + nbr_ids:
        xl = label_of[x]
        heads = []
        d0 = g.min_dart_at(x)
        if d0 >= 0:
            d = d0
            while True:
                heads.append(label_of.get(node_of[d ^ 1]))
                d = nxt[d]
                if d == d0:
                    break
        if xl < nw:
            if None in heads:
                raise ChecksFailed("kernel node has a neighbor outside the piece")
            rows[xl] = heads
        else:
            rows[xl] = [yl for yl in heads if yl is not None and yl < nw + nv]

    # Skeleton rows: the restricted rotations with part-interior entries dropped.
    for h in w_ids + nbr_ids:
        xl = label_of[h]
        skel = anchored([y for y in rows[xl] if not nw <= y < nw + nv])
        w.write_uint(len(skel))
        w.write_uints(skel, width)

    # Boundary map of each fine part into the piece's label space.  A row
    # (fine label, coarse label) is written as one value of both widths.
    for pv, _, _ in items:
        fw = ceil_log2(pv.n)
        blabels = sorted(pv.boundary)
        pairs = []
        for bl in blabels:
            cl = label_of.get(pv.ids[bl])
            if cl is None or nw <= cl < nw + nv:
                raise ChecksFailed("part boundary node is interior to a sibling part")
            pairs.append((bl << width) | cl)
        w.write_uint(len(pairs))
        w.write_uints(pairs, fw + width)

    # Splice triples: cyclic cell changes in each kernel/boundary rotation.
    cell = [-1] * nw + int_part + [-1] * nb
    triples = []
    for xl, rot in rows.items():
        cells = [cell[y] for y in rot]
        if cells and cells.count(cells[0]) != len(cells):
            for i, a in enumerate(rot):
                if cells[i - 1] != cells[i]:
                    triples.append((xl, rot[i - 1], a))
    triples.sort()
    w.write_uint(len(triples))
    w.write_uints([y for triple in triples for y in triple], width)

    return PartView(frozenset(range(nw + nv, node)), ids)


def decode_level_from(r: BitReader, fine: list, offset: int = 0) -> list:
    """Rebuild one level's coarse part graphs, as half-edge arrays, from its
    stream and the finer parts' arrays.

    ``fine`` holds the decoded finer part graphs in emission order, each as
    its ``(node_of, nxt, first)`` arrays: edge e owns darts 2e and 2e + 1,
    each node's darts form one cycle of ``nxt`` from its ``first`` dart (-1
    for none), and every node label lies below the part's node count.  The
    returned list holds each coarse piece in the same form, ``first``
    indexed by the piece's three-zone labels and ``node_of`` holding those
    labels plus ``offset``, ready to be the next level's ``fine`` (at offset
    0) or to be placed at that offset among the container's other nodes
    (the last level of a body).  Every label is range-checked as it is read,
    and every splice keeps each node's darts on one cycle, but the arrays
    are not checked for simplicity here: a fine part's self-loops and
    repeated edges carry over into the piece and surface when the caller
    builds the graph they end up in.  (An edge between two boundary nodes
    of a part, which no encoder writes, is spliced like any other part
    edge; if it repeats a skeleton edge, that is such a repeated edge.)
    Consumes exactly one level's stream from the open reader, leaving any
    following bits for the caller.
    """
    npieces = r.read_uint()
    if npieces < 1 or npieces > MAX_NODES:
        raise CodecError("piece count out of range")
    out = []
    cursor = 0
    for _ in range(npieces):
        piece, used = _decode_piece(r, fine, cursor, offset)
        out.append(piece)
        cursor += used
    if cursor != len(fine):
        raise CodecError("leftover fine part graphs")
    return out


def shifted(first: list, base: int) -> list:
    """A ``first`` array with ``base`` added to each dart, -1 (no dart)
    kept."""
    if not base:
        return first
    if -1 in first:
        return [d + base if d >= 0 else -1 for d in first]
    return [d + base for d in first]


def _decode_piece(r: BitReader, fine: list, cursor: int, off: int) -> tuple[tuple, int]:
    """One coarse piece's arrays, ``first`` indexed by local label and
    ``node_of`` holding labels plus ``off``, and the number of fine parts
    it took.

    The parts' darts come first, each part's shifted by the darts before
    it (an even offset, so twins stay ``d ^ 1``), then the skeleton's."""
    ni = r.read_uint()
    nw = r.read_uint()
    nv = r.read_uint()
    nb = r.read_uint()
    if max(ni, nw, nv, nb) > MAX_NODES:
        raise CodecError("piece size out of range")
    if cursor + ni > len(fine):
        raise CodecError("missing fine part graphs")
    parts = fine[cursor : cursor + ni]
    node = nw + nv + nb
    width = ceil_log2(node)

    skel = []
    for idx in range(nw + nb):
        xl = idx if idx < nw else nw + nv + (idx - nw)
        deg = r.read_uint()
        if deg > max(node - 1, 0):
            raise CodecError("skeleton degree exceeds piece size")
        row = r.read_uints(width, deg)
        for y in row:
            if y >= node or y == xl:
                raise CodecError("skeleton label out of range")
            if xl < nw:
                if nw <= y < nw + nv:
                    raise CodecError("kernel skeleton row points into a part")
            elif y >= nw:
                raise CodecError("boundary skeleton row must point at kernel nodes")
        skel.append((xl, row))

    # Per part, the coarse label of each of its nodes.  The nodes off the
    # part's boundary take the next interior labels in ascending order, so
    # the run between two boundary rows is one range of labels, and their
    # first darts go to ``first`` as one slice.  The part's ``node_of`` is
    # relabeled in one pass and its darts shifted past the darts before it.
    # Each boundary node's first dart waits in ``cells_at`` for its node's
    # splice: the cycle from there is that part's cell of the node.
    # The interiors come from the parts, so a hostile nv is refused before
    # ``first`` is sized by it.
    if nv > sum(len(p_first) for _, _, p_first in parts):
        raise CodecError("part interiors do not fill the piece")
    node_of: list = []
    nxt: list = []
    first = [-1] * node
    cells_at: dict = {}
    lab = nw + off  # next interior label
    mask = (1 << width) - 1
    for p_node_of, p_nxt, p_first in parts:
        nq = len(p_first)
        fw = ceil_log2(nq)
        b = r.read_uint()
        if b > nq:
            raise CodecError("part boundary larger than the part")
        m = [-1] * nq
        at = lab - off  # the local label of the part's first interior node
        bounds = []
        used = set()
        prev_f = -1
        for pair in r.read_uints(fw + width, b):
            f = pair >> width
            cl = pair & mask
            if f <= prev_f or f >= nq:
                raise CodecError("part boundary rows must ascend")
            if cl >= node or nw <= cl < nw + nv:
                raise CodecError("part boundary maps to an interior label")
            if cl in used:
                raise CodecError("two part nodes map to one coarse node")
            used.add(cl)
            m[prev_f + 1 : f] = range(lab, lab + f - prev_f - 1)
            lab += f - prev_f - 1
            m[f] = cl + off
            prev_f = f
            bounds.append((f, cl))
        m[prev_f + 1 :] = range(lab, lab + nq - prev_f - 1)
        lab += nq - prev_f - 1
        # A part's node labels lie below its node count: read_contour and
        # the table members make them so, and an earlier piece takes its
        # labels from its label maps and skeleton rows, which are
        # range-checked as they are read.
        base = len(node_of)
        node_of += map(m.__getitem__, p_node_of)
        nxt += [d + base for d in p_nxt] if base else p_nxt
        pf = shifted(p_first, base)
        start = 0
        for f, cl in bounds:
            first[at : at + f - start] = pf[start:f]
            at += f - start
            d = pf[f]
            if d < 0:
                raise CodecError("boundary row for an isolated part node")
            cells_at.setdefault(cl, []).append(d)
            start = f + 1
        first[at : at + nq - start] = pf[start:]
    if lab != nw + nv + off:
        raise CodecError("part interiors do not fill the piece")

    t = r.read_uint()
    if width == 0 and t:
        raise CodecError("splice triples in a one-node piece")
    flat = r.read_uints(width, 3 * t)
    ends: dict = {}
    prev_key = None
    for i in range(0, 3 * t, 3):
        x, a, b2 = flat[i], flat[i + 1], flat[i + 2]
        if x >= node or nw <= x < nw + nv:
            raise CodecError("splice triple on an interior node")
        if a >= node or b2 >= node:
            raise CodecError("splice label out of range")
        key = (x, a)
        if prev_key is not None and key <= prev_key:
            raise CodecError("splice triples must ascend")
        prev_key = key
        ends.setdefault(x, {})[a + off] = b2 + off

    # The skeleton's darts: an entry y in x's row opens an edge whose far
    # dart waits for the entry x in y's row.
    waiting: dict = {}  # x * node + y -> the dart at y of an edge x -> y
    for xl, row in skel:
        if not row:
            cell = -1
        else:
            prev = -1
            for y in row:
                d = waiting.pop(y * node + xl, -1)
                if d < 0:
                    key = xl * node + y
                    if key in waiting:
                        raise CodecError("repeated skeleton entry")
                    d = len(node_of)
                    node_of += (xl + off, y + off)
                    nxt += (0, 0)
                    waiting[key] = d + 1
                if prev < 0:
                    cell = d
                else:
                    nxt[prev] = d
                prev = d
            nxt[prev] = cell
        cells = cells_at.get(xl, [])
        if cell >= 0:
            cells.insert(0, cell)
        first[xl] = _splice(node_of, nxt, cells, ends.get(xl))
    if waiting:
        raise CodecError("asymmetric skeleton rows")
    return (node_of, nxt, first), ni


def _splice(node_of: list, nxt: list, cells: list, ends: dict | None) -> int:
    """Interleave one node's cells, the cycles of ``nxt`` through the given
    darts, into one cycle, following ``ends``, and return a dart of it (-1
    for no cell).

    ``ends`` maps a run-ending head label to the head label that starts
    the next run.  Each cell is cut after each dart whose head ends a run;
    the runs, chained end to start, must form a single cycle that uses every
    run exactly once, and each run end is linked to the next run's start as
    the chain is followed.  A lone cell, with no ends, is kept as it is.
    """
    if not cells:
        if ends:
            raise CodecError("splice triples on an empty rotation")
        return -1
    if ends is None:
        if len(cells) > 1:
            raise CodecError("multiple rotation cells without splice triples")
        return cells[0]
    if len(cells) == 1:
        raise CodecError("splice triples on a single-cell rotation")
    end_of: dict = {}  # run start dart -> run end dart
    start_at: dict = {}  # head label -> the dart starting a run
    for c in cells:
        enders = []
        d = c
        while True:
            if node_of[d ^ 1] in ends:
                enders.append(d)
            d = nxt[d]
            if d == c:
                break
        if not enders:
            raise CodecError("rotation cell without a run end")
        prev = enders[-1]
        for e in enders:
            s = nxt[prev]
            h = node_of[s ^ 1]
            if h in start_at:
                raise CodecError("ambiguous splice run start")
            start_at[h] = s
            end_of[s] = e
            prev = e
    runs = len(end_of)
    if runs != len(ends):
        raise CodecError("splice triple count mismatch")
    s0 = s = next(iter(end_of))
    for k in range(1, runs + 1):
        e = end_of[s]
        s = start_at.get(ends[node_of[e ^ 1]])
        if s is None:
            raise CodecError("splice continues at a non-run start")
        nxt[e] = s
        if s == s0:
            break
    if s != s0:
        raise CodecError("splice runs revisit a fragment")
    if k != runs:
        raise CodecError("splice runs do not close a single cycle")
    return s0
