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

The decoder takes the finer parts as rotation rows and returns each coarse
piece as rotation rows: it builds no graph.  It relabels each part's rows in
one pass through the part's label map; the interior rows, whose labels run
in the part's ascending order, are placed as whole runs, and the boundary
rows go to their nodes' splices.  Its checks keep every label in range, so
the rows stay well formed from level to level; whether they pair up into a
valid rotation system is checked once, when the caller builds the whole
graph from them.  The caller may give an offset, which the last level of a
body uses to write its labels where the body sits among the container's
rows.
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


def decode_level_from(r: BitReader, fine_rows: list, offset: int = 0) -> list:
    """Rebuild one level's coarse part graphs, as rotation rows, from its
    stream and the finer parts' rotation rows.

    ``fine_rows`` holds the rotation rows of the decoded finer part graphs in
    emission order, one list of clockwise neighbor rows per part; the rows
    need not start at any particular neighbor, and each entry must lie below
    its part's row count.  The returned list holds the rows of each coarse
    piece in the same form, in the piece's three-zone label space plus
    ``offset``, ready to be the next level's ``fine_rows`` (at offset 0) or
    to be placed at that offset among other rows (the last level of a body).
    Every label is range-checked as it is read, but the rows are not built
    into a graph here: a fine part's self-loops, repeated or one-sided
    entries carry over into the piece's rows and surface when the caller
    builds the graph they end up in.  (An edge between two boundary nodes of
    a part, which no encoder writes, reaches only boundary rows, where a
    skeleton row can complete it.)  Consumes exactly one level's stream from
    the open reader, leaving any following bits for the caller.
    """
    npieces = r.read_uint()
    if npieces < 1 or npieces > MAX_NODES:
        raise CodecError("piece count out of range")
    out = []
    cursor = 0
    for _ in range(npieces):
        rows, used = _decode_piece(r, fine_rows, cursor, offset)
        out.append(rows)
        cursor += used
    if cursor != len(fine_rows):
        raise CodecError("leftover fine part graphs")
    return out


def _decode_piece(r: BitReader, fine_rows: list, cursor: int, off: int) -> tuple[list, int]:
    """One coarse piece's rows, indexed by local label and holding labels
    plus ``off``, and the number of fine parts it took."""
    ni = r.read_uint()
    nw = r.read_uint()
    nv = r.read_uint()
    nb = r.read_uint()
    if max(ni, nw, nv, nb) > MAX_NODES:
        raise CodecError("piece size out of range")
    if cursor + ni > len(fine_rows):
        raise CodecError("missing fine part graphs")
    parts = fine_rows[cursor : cursor + ni]
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
        skel.append((xl, [y + off for y in row] if off else row))

    # Per part, the coarse label of each of its nodes.  The nodes off the
    # part's boundary take the next interior labels in ascending order, so
    # the run between two boundary rows is one range of labels, and the
    # part's rows, relabeled in one pass, go as runs into ``interior``: the
    # rows of the piece's interior zone in label order.  Each relabeled
    # boundary row waits in ``cells_at`` for its node's splice.
    interior: list = []
    cells_at: dict = {}
    lab = nw + off  # next interior label
    mask = (1 << width) - 1
    for rows in parts:
        nq = len(rows)
        fw = ceil_log2(nq)
        b = r.read_uint()
        if b > nq:
            raise CodecError("part boundary larger than the part")
        m = [-1] * nq
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
        # The part rows hold labels below their part's size: read_contour
        # builds them so, table members are validated graphs, and an earlier
        # piece's rows take their labels from its label maps and skeleton
        # rows, which are range-checked as they are read.
        get = m.__getitem__
        rel = [list(map(get, row)) for row in rows]
        start = 0
        for f, cl in bounds:
            interior += rel[start:f]
            cells_at.setdefault(cl, []).append(rel[f])
            start = f + 1
        interior += rel[start:]
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

    rot: list = [None] * nw + interior + [None] * nb
    for xl, wrow in skel:
        subs = cells_at.get(xl, ())
        if not all(subs):
            raise CodecError("boundary row for an isolated part node")
        rot[xl] = _splice([wrow, *subs] if wrow else subs, ends.get(xl))
    return rot, ni


def _splice(cells: list, ends: dict | None) -> list:
    """Interleave cyclic rotation fragments into one cycle, following ``ends``.

    ``ends`` maps run-ending labels to the label starting the next run.  Each
    cell is cut at its run ends; the runs must chain into a single cycle that
    uses every run exactly once.  A lone cell, with no ends, is returned as it
    is.
    """
    if not cells:
        if ends:
            raise CodecError("splice triples on an empty rotation")
        return []
    if ends is None:
        if len(cells) > 1:
            raise CodecError("multiple rotation cells without splice triples")
        return cells[0]
    if len(cells) == 1:
        raise CodecError("splice triples on a single-cell rotation")
    runs: list = []
    start_at: dict = {}
    for cell in cells:
        size = len(cell)
        epos = [i for i, y in enumerate(cell) if y in ends]
        if not epos:
            raise CodecError("rotation cell without a run end")
        for k, e in enumerate(epos):
            s = (epos[k - 1] + 1) % size
            run = cell[s : e + 1] if s <= e else cell[s:] + cell[: e + 1]
            if run[0] in start_at:
                raise CodecError("ambiguous splice run start")
            start_at[run[0]] = len(runs)
            runs.append(run)
    if len(runs) != len(ends):
        raise CodecError("splice triple count mismatch")
    out: list = []
    idx = 0
    seen = set()
    for _ in range(len(runs)):
        if idx in seen:
            raise CodecError("splice runs revisit a fragment")
        seen.add(idx)
        run = runs[idx]
        out.extend(run)
        nxt = start_at.get(ends[run[-1]])
        if nxt is None:
            raise CodecError("splice continues at a non-run start")
        idx = nxt
    if idx != 0:
        raise CodecError("splice runs do not close a single cycle")
    return out
