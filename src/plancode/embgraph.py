"""Embedded graphs as rotation systems (half-edge structure).

An embedded graph is a simple graph plus, for every node, a clockwise cyclic
order of its incident edge-ends ("darts"). This determines an embedding on an
orientable surface whose genus follows from Euler's formula per component.

Representation: edge i owns darts 2i and 2i+1 (``twin(d) = d ^ 1``);
``node_of[d]`` is the dart's origin; per node the darts form one cycle of
``nxt`` in clockwise order. The structure is insertion-only — operations
that delete build a new graph instead — and an insertion names the dart
that comes before the new one, so a cycle of ``nxt`` alone keeps chord
insertion O(1).

Face tracing: the successor of dart d within its face walk is
``nxt[twin(d)]``. Each dart lies on exactly one face walk; a component with
no edges counts as one face by convention.
"""

from __future__ import annotations

from collections import deque
from typing import Collection, Iterable, Iterator, Sequence

from .bits import BitReader, BitWriter, ceil_log2
from .errors import ChecksFailed, CodecError, InvalidEmbedding

__all__ = [
    "EmbeddedGraph",
    "canonical_form",
    "canonical_code",
    "canonical_labeling",
    "labeled_equal",
    "write_graph",
    "anchored",
    "read_graph",
    "write_part_contour_into",
    "read_contour",
]


class EmbeddedGraph:
    __slots__ = ("n", "node_of", "nxt", "first")

    def __init__(self) -> None:
        self.n = 0
        self.node_of: list[int] = []
        self.nxt: list[int] = []
        self.first: list[int] = []  # some dart at node, -1 if isolated

    # -- construction ----------------------------------------------------

    @classmethod
    def from_rotations(cls, rotations: Sequence[Sequence[int]]) -> "EmbeddedGraph":
        """Build from clockwise neighbor lists in one pass over the entries.
        Validates simplicity and that every edge appears in both endpoint
        lists.

        Edge e is the e-th entry v > u in row order: its dart 2e sits at the
        smaller endpoint u and stays open until row v, which comes later,
        takes 2e + 1 for its entry u.  A repeated neighbor shows up as an
        edge opened twice, or as a failed close that the row's count of that
        neighbor explains; an edge opened and never closed, or more edges
        opened than the entries can close, makes the rows asymmetric."""
        g = cls()
        n = len(rotations)
        g.n = n
        g.first = first = [-1] * n
        nd = sum(map(len, rotations))
        g.node_of = node_of = [0] * nd
        g.nxt = nxt = [0] * nd
        opened: dict[int, int] = {}  # u * n + v -> dart 2e at u, for u < v
        close = opened.pop
        nopen = 0
        try:
            for u, row in enumerate(rotations):
                if not row:
                    continue
                prev = -1
                for v in row:
                    if not isinstance(v, int) or not 0 <= v < n:
                        raise InvalidEmbedding(f"neighbor {v!r} out of range at node {u}")
                    if u < v:
                        if u * n + v in opened:
                            raise InvalidEmbedding(f"repeated neighbor {v} at node {u}")
                        opened[u * n + v] = d = nopen
                        nopen += 2
                    elif u > v:
                        d = close(v * n + u, -2) + 1
                        if d < 0:
                            if row.count(v) > 1:
                                raise InvalidEmbedding(f"repeated neighbor {v} at node {u}")
                            raise InvalidEmbedding(
                                f"edge ({u},{v}) missing from node {v}'s rotation"
                            )
                    else:
                        raise InvalidEmbedding(f"self-loop at node {u}")
                    node_of[d] = u
                    if prev < 0:
                        first[u] = d
                    else:
                        nxt[prev] = d
                    prev = d
                nxt[prev] = first[u]
        except IndexError:  # a dart number past the entries: more opens than closes
            raise InvalidEmbedding("asymmetric rotation lists") from None
        if opened:
            raise InvalidEmbedding("asymmetric rotation lists")
        return g

    def copy(self) -> "EmbeddedGraph":
        g = EmbeddedGraph()
        g.n = self.n
        g.node_of = self.node_of[:]
        g.nxt = self.nxt[:]
        g.first = self.first[:]
        return g

    # -- basic accessors ---------------------------------------------------

    @property
    def num_edges(self) -> int:
        return len(self.node_of) // 2

    @property
    def num_darts(self) -> int:
        return len(self.node_of)

    def head(self, d: int) -> int:
        """Node the dart points to (origin of its twin)."""
        return self.node_of[d ^ 1]

    def darts_at(self, v: int) -> Iterator[int]:
        d0 = self.first[v]
        if d0 < 0:
            return
        d = d0
        while True:
            yield d
            d = self.nxt[d]
            if d == d0:
                break

    def degree(self, v: int) -> int:
        d0 = self.first[v]
        if d0 < 0:
            return 0
        nxt = self.nxt
        k = 1
        d = nxt[d0]
        while d != d0:
            k += 1
            d = nxt[d]
        return k

    def neighbors(self, v: int) -> list[int]:
        return [self.head(d) for d in self.darts_at(v)]

    def min_dart_at(self, v: int) -> int:
        """Dart at v with the smallest head label; -1 if isolated."""
        d0 = self.first[v]
        if d0 < 0:
            return -1
        node_of, nxt = self.node_of, self.nxt
        best, best_head = d0, node_of[d0 ^ 1]
        d = nxt[d0]
        while d != d0:
            h = node_of[d ^ 1]
            if h < best_head:
                best, best_head = d, h
            d = nxt[d]
        return best

    def rotation_from(self, d0: int) -> list[int]:
        """Darts at origin(d0) in clockwise order starting at d0."""
        out = [d0]
        d = self.nxt[d0]
        while d != d0:
            out.append(d)
            d = self.nxt[d]
        return out

    def to_rotations(self) -> list[list[int]]:
        """Neighbor lists, each starting at the smallest neighbor label.
        Canonical for a fixed labeling; basis for equality and hashing."""
        out: list[list[int]] = []
        for v in range(self.n):
            d = self.min_dart_at(v)
            out.append([self.head(x) for x in self.rotation_from(d)] if d >= 0 else [])
        return out

    def has_edge(self, u: int, v: int) -> bool:
        return any(self.head(d) == v for d in self.darts_at(u))

    def edges(self) -> Iterator[tuple[int, int]]:
        for e in range(self.num_edges):
            u, v = self.node_of[2 * e], self.node_of[2 * e + 1]
            yield (u, v) if u < v else (v, u)

    # -- mutation (insertion only) ----------------------------------------

    def add_node(self) -> int:
        self.n += 1
        self.first.append(-1)
        return self.n - 1

    def insert_chord(self, pa: int, pb: int) -> tuple[int, int]:
        """Add edge between origin(pa) and origin(pb), threaded through the
        face corners immediately after pa and pb: each new dart follows its
        named dart clockwise.  The corner after pa is the one a face walk
        passes on arriving along pa's twin.

        Precondition (not checked): the two corners lie on the same face
        walk and the origins are distinct and non-adjacent. Splits that face
        into two. Returns the new darts (at origin(pa), at origin(pb)).
        """
        node_of, nxt = self.node_of, self.nxt
        eu = len(node_of)
        node_of += (node_of[pa], node_of[pb])
        nxt += (nxt[pa], nxt[pb])
        nxt[pa] = eu
        nxt[pb] = eu + 1
        return eu, eu + 1

    def insert_leaf(self, p: int) -> tuple[int, int, int]:
        """Add a new degree-1 node attached at the face corner after dart p.
        Returns (new node, dart at origin, dart at leaf)."""
        node_of, nxt = self.node_of, self.nxt
        w = self.add_node()
        eu = len(node_of)
        node_of += (node_of[p], w)
        nxt += (nxt[p], eu + 1)
        nxt[p] = eu
        self.first[w] = eu + 1
        return w, eu, eu + 1

    # -- faces / genus -----------------------------------------------------

    def faces(self) -> list[list[int]]:
        """All face walks as dart lists, in order of smallest member dart.
        Components without edges contribute no walk."""
        nd = len(self.node_of)
        seen = bytearray(nd)
        out: list[list[int]] = []
        nxt = self.nxt
        for d0 in range(nd):
            if seen[d0]:
                continue
            walk = []
            d = d0
            while not seen[d]:
                seen[d] = 1
                walk.append(d)
                d = nxt[d ^ 1]
            out.append(walk)
        return out

    def face_of_darts(self) -> tuple[list[int], int]:
        """Map dart -> face index (faces ordered by smallest dart)."""
        nd = len(self.node_of)
        face_of = [-1] * nd
        nxt = self.nxt
        count = 0
        for d0 in range(nd):
            if face_of[d0] >= 0:
                continue
            d = d0
            while face_of[d] < 0:
                face_of[d] = count
                d = nxt[d ^ 1]
            count += 1
        return face_of, count

    def component_ids(self, removed: Iterable[int] = ()) -> tuple[list[int], int]:
        """Component id of every node and the component count, after deleting
        the ``removed`` nodes (their id is -1). Components are numbered in
        order of their smallest node."""
        n = self.n
        comp = [-1] * n
        seen = bytearray(n)
        for v in removed:
            seen[v] = 1
        node_of, nxt, first = self.node_of, self.nxt, self.first
        count = 0
        for s in range(n):
            if seen[s]:
                continue
            seen[s] = 1
            comp[s] = count
            queue = [s]
            for u in queue:
                d0 = first[u]
                if d0 < 0:
                    continue
                d = d0
                while True:
                    w = node_of[d ^ 1]
                    if not seen[w]:
                        seen[w] = 1
                        comp[w] = count
                        queue.append(w)
                    d = nxt[d]
                    if d == d0:
                        break
            count += 1
        return comp, count

    def components(self, removed: Iterable[int] = ()) -> list[list[int]]:
        """Connected components as sorted node lists, ordered by min node,
        after deleting the ``removed`` nodes."""
        comp, count = self.component_ids(removed)
        out: list[list[int]] = [[] for _ in range(count)]
        for v, c in enumerate(comp):
            if c >= 0:
                out[c].append(v)
        return out

    @property
    def connected(self) -> bool:
        return self.n <= 1 or self.component_ids()[1] == 1

    def genus(self) -> int:
        """Euler genus, summed over components. Raises InvalidEmbedding if
        the summed Euler deficiency is odd or negative."""
        return self.euler()[0]

    def euler(self) -> tuple[int, int]:
        """(genus, component count) from one sweep over the faces; raises
        as ``genus`` does.

        Each face is traced once, and every dart met pushes its twin while
        the twin is unseen, so one stack walk covers a whole component with
        edges.  Every component of a rotation system is a closed orientable
        surface (its Euler deficiency 2 - V + E - F is even and >= 0), so
        the genus is half the summed deficiency; isolated nodes add a
        component each and nothing to the genus."""
        node_of, nxt = self.node_of, self.nxt
        nd = len(node_of)
        seen = bytearray(nd)
        faces = walks = 0
        d0 = seen.find(0)  # the next unseen dart, found by a byte scan
        while d0 >= 0:
            walks += 1
            stack = [d0]
            for d in stack:  # the face starts of one component
                if seen[d]:
                    continue
                faces += 1
                while not seen[d]:
                    seen[d] = 1
                    d ^= 1
                    if not seen[d]:
                        stack.append(d)
                    d = nxt[d]
            d0 = seen.find(0, d0 + 1)
        isolated = self.first.count(-1)
        deficiency = 2 * walks - (self.n - isolated) + nd // 2 - faces
        if deficiency < 0 or deficiency % 2:
            raise InvalidEmbedding("rotation system has inconsistent Euler count")
        return deficiency // 2, walks + isolated

    # -- derived graphs ------------------------------------------------------

    def relabel(self, perm: Sequence[int]) -> "EmbeddedGraph":
        """New graph where old node v becomes perm[v]. perm must be a bijection."""
        n = self.n
        inv = [-1] * n
        for old, new in enumerate(perm):
            if not 0 <= new < n or inv[new] >= 0:
                raise ValueError("perm is not a bijection")
            inv[new] = old
        rots: list[list[int]] = []
        for new in range(n):
            old = inv[new]
            d = self.min_dart_at(old)
            if d < 0:
                rots.append([])
                continue
            nbrs = [perm[self.head(x)] for x in self.rotation_from(d)]
            # rotate so the smallest new label starts (canonical storage)
            k = nbrs.index(min(nbrs))
            rots.append(nbrs[k:] + nbrs[:k])
        return EmbeddedGraph.from_rotations(rots)

    def induced(self, nodes: Iterable[int]) -> tuple["EmbeddedGraph", list[int]]:
        """Induced embedded subgraph. Returns (graph, ids) where ids[i] is
        the original node of new node i (ascending).  Each row is read from
        its node's ``first`` dart, so edges and darts are numbered as the
        host's darts order them."""
        ids = sorted(set(nodes))
        idx = {v: i for i, v in enumerate(ids)}
        rows = [[idx[w] for w in self.neighbors(v) if w in idx] for v in ids]
        return EmbeddedGraph.from_rotations(rows), ids

    def neighbors_of_set(self, nodes: Iterable[int]) -> set[int]:
        ns = set(nodes)
        node_of, nxt, first = self.node_of, self.nxt, self.first
        out: set[int] = set()
        for v in ns:
            d0 = first[v]
            if d0 < 0:
                continue
            d = d0
            while True:
                out.add(node_of[d ^ 1])
                d = nxt[d]
                if d == d0:
                    break
        out -= ns
        return out

    def part_rows(self, part: Iterable[int]) -> tuple[list[int], frozenset, list[list[int]]]:
        """The part graph of ``part`` as rotation rows: the embedded subgraph
        on part + its neighborhood, keeping every edge incident to the part
        but none between two neighborhood nodes.

        Returns (ids, boundary, rows): ids[i] is the node of local label i
        (ascending), boundary holds the local labels of the neighborhood, and
        rows[i] lists the local neighbors of label i clockwise from its
        node's ``first`` dart.  Read from there, ``from_rotations(rows)``
        numbers edges and darts as the host's darts order them."""
        node_of, nxt, first = self.node_of, self.nxt, self.first
        inside = set(part)
        heads: dict[int, list[int]] = {}
        reach: set[int] = set()
        for v in inside:
            row = []
            d0 = first[v]
            if d0 >= 0:
                d = d0
                while True:
                    row.append(node_of[d ^ 1])
                    d = nxt[d]
                    if d == d0:
                        break
            heads[v] = row
            reach.update(row)
        outside = reach - inside
        ids = sorted(inside | outside)
        idx = {v: i for i, v in enumerate(ids)}
        rows = []
        for v in ids:
            row = heads.get(v)
            if row is None:  # a neighborhood node keeps its darts into the part
                row = []
                d0 = first[v]
                d = d0
                while True:
                    w = node_of[d ^ 1]
                    if w in inside:
                        row.append(w)
                    d = nxt[d]
                    if d == d0:
                        break
            rows.append([idx[w] for w in row])
        return ids, frozenset(idx[v] for v in outside), rows

    def __repr__(self) -> str:
        return f"EmbeddedGraph(n={self.n}, m={self.num_edges})"


# -- triangulation -------------------------------------------------------------


def _triangulate_into(g: EmbeddedGraph) -> None:
    """Add chords to g itself until every face walk has length 3.  Nodes
    are unchanged, and g stays simple.

    The caller guarantees what ear clipping needs: g is a connected plane
    graph, as the cycle phase's contraction is.  Every face of such a graph
    that is not a triangle has a corner whose two walk-neighbors are
    distinct and not adjacent (two adjacent blocking chords would have to
    cross outside the face), and cutting that corner off by a chord leaves
    a shorter face.  A face of positive genus may have no such corner, and
    raises InvalidEmbedding.

    A dart d lies on a triangle when phi^3(d) = d, phi(d) = nxt[d ^ 1]
    being its successor on its face walk.  Only the other faces are traced,
    and they are clipped in order of smallest dart, as ``faces()`` lists
    them.  Each chord joins two nodes of the face it clips, so the adjacency
    set that clipping tests and updates holds only the edges at nodes of
    these faces.  Clipping one face adds to the set that the next is tested
    against, so the order fixes which chords are added and how they are
    numbered."""
    node_of, nxt = g.node_of, g.nxt
    phi = nxt[:]  # the twin of d is d ^ 1: swap nxt's even and odd entries
    phi[::2], phi[1::2] = nxt[1::2], nxt[::2]
    step = phi.__getitem__
    open_darts = [d for d, e in enumerate(map(step, map(step, phi))) if e != d]
    if not open_darts:
        return
    seen = bytearray(len(node_of))
    walks = []
    for d0 in open_darts:
        if seen[d0]:
            continue
        walk = []
        d = d0
        while not seen[d]:
            seen[d] = 1
            walk.append(d)
            d = nxt[d ^ 1]
        walks.append(walk)
    n = g.n
    adj: set[int] = set()
    on_walk = bytearray(n)
    for walk in walks:
        for d in walk:
            u = node_of[d]
            if on_walk[u]:
                continue
            on_walk[u] = 1
            base = u * n
            x = d
            while True:
                adj.add(base + node_of[x ^ 1])
                x = nxt[x]
                if x == d:
                    break
    for walk in walks:
        _clip_face(g, walk, adj)


def _clip_face(g: EmbeddedGraph, walk: list[int], adj: set[int]) -> None:
    """Clip ears off one face walk until it is a triangle. ``walk`` is the
    dart list of the face; ``adj`` is the live global adjacency set."""
    s = len(walk)
    if s <= 3:
        return
    n = g.n
    # circular doubly-linked list over positions; the dart before each live
    # corner is the twin of the walk dart arriving there, and changes when a
    # chord becomes that arriving dart
    nxt_pos = list(range(1, s)) + [0]
    prv_pos = [s - 1] + list(range(s - 1))
    pre = [walk[i - 1] ^ 1 for i in range(s)]
    node = [g.node_of[d] for d in walk]
    alive = [True] * s
    remaining = s
    cand = deque(range(s))
    while remaining > 3:
        if not cand:
            raise InvalidEmbedding(
                "face cannot be triangulated by chords (non-planar face)"
            )
        i = cand.popleft()
        if not alive[i]:
            continue
        ip, iq = prv_pos[i], nxt_pos[i]
        a, b = node[ip], node[iq]
        if a == b or (a * n + b) in adj:
            continue
        # clip corner i: chord between the corners at ip and iq; the walk
        # now arrives at iq along the chord, whose twin comes before iq's
        # corner
        _ea, pre[iq] = g.insert_chord(pre[ip], pre[iq])
        adj.add(a * n + b)
        adj.add(b * n + a)
        alive[i] = False
        remaining -= 1
        nxt_pos[ip] = iq
        prv_pos[iq] = ip
        cand.append(ip)
        cand.append(iq)


# -- canonical forms -----------------------------------------------------------


def _traversal_stream_bounded(
    g: EmbeddedGraph, start: int, best: tuple[int, ...] | None
) -> tuple[tuple[int, ...], list[int]] | None:
    """Token stream of the rotation-aware BFS from start dart, plus the
    labeling it induces (old node -> new label); None as soon as the stream
    is lexicographically greater than ``best``.

    Tokens: for each node in label order, its degree followed by the labels
    of its neighbors in clockwise rotation order. The root's rotation starts
    at the start dart; every other node's rotation starts at the dart back
    to the node that first mentioned it. Neighbors are labeled at first
    mention. The stream determines the labeled rotation system exactly. All
    streams of one graph have the same length (n + 2E tokens), so positional
    comparison against ``best`` decides.
    """
    label = [-1] * g.n
    root = g.node_of[start]
    label[root] = 0
    entry = [start]  # entry[i] = rotation start dart of the node labeled i
    tokens: list[int] = []
    undecided = best is not None  # still equal to best's prefix
    i = 0
    while i < len(entry):
        e = entry[i]
        rot = g.rotation_from(e)
        tokens.append(len(rot))
        if undecided:
            ref = best[len(tokens) - 1]  # type: ignore[index]
            if len(rot) > ref:
                return None
            if len(rot) < ref:
                undecided = False
        for d in rot:
            w = g.head(d)
            if label[w] < 0:
                label[w] = len(entry)
                entry.append(d ^ 1)
            tokens.append(label[w])
            if undecided:
                ref = best[len(tokens) - 1]  # type: ignore[index]
                if tokens[-1] > ref:
                    return None
                if tokens[-1] < ref:
                    undecided = False
        i += 1
    return tuple(tokens), label


def canonical_form(g: EmbeddedGraph) -> tuple[tuple[int, ...], list[int]]:
    """Minimal traversal stream over all start darts, with its labeling.
    Connected graphs only: raises ValueError on a graph that the first
    traversal does not cover, or that has an isolated node beside an edge.

    Only darts at minimum-degree nodes can start the minimal stream (its
    first token is the root degree), and candidate walks are abandoned as
    soon as they exceed the incumbent; the result equals the full minimum."""
    if g.n == 1:
        return (0,), [0]
    degs = [g.degree(v) for v in range(g.n)]
    dmin = min(degs, default=0)
    if dmin == 0:
        raise ValueError("canonical_form requires a connected graph with an edge")
    best: tuple[int, ...] | None = None
    best_label: list[int] | None = None
    for d in range(g.num_darts):
        if degs[g.node_of[d]] != dmin:
            continue
        got = _traversal_stream_bounded(g, d, best)
        if got is None:
            continue
        stream, label = got
        if best is None and len(stream) != g.n + g.num_darts:
            # Every stream of a connected graph has n + 2E tokens; a shorter
            # one missed a component, and would be compared past its end.
            raise ValueError("canonical_form requires a connected graph")
        if best is None or stream < best:
            best, best_label = stream, label
    assert best is not None and best_label is not None
    return best, best_label


def canonical_labeling(g: EmbeddedGraph) -> list[int]:
    """Canonical labeling of a connected graph (old node -> new label), as
    ``canonical_form`` finds it.  Every part graph and table member is
    connected; a disconnected graph raises ValueError."""
    return canonical_form(g)[1]


def canonical_code(g: EmbeddedGraph):
    """Serialized canonical form: isomorphic embedded graphs (as unlabeled
    rotation systems, orientation-preserving) get equal codes."""
    return write_graph(g.relabel(canonical_labeling(g)))


def labeled_equal(a: EmbeddedGraph, b: EmbeddedGraph) -> bool:
    """Equality as labeled embedded graphs (same nodes, edges, rotations)."""
    return a.n == b.n and a.to_rotations() == b.to_rotations()


# -- bit serialization -----------------------------------------------------------


def write_graph(g: EmbeddedGraph):
    """Serialize a labeled embedded graph: gamma(n), then per node gamma(deg)
    and its neighbors in clockwise order from the smallest, each in
    ceil(log2 n) fixed-width bits."""
    w = BitWriter()
    n = g.n
    w.write_uint(n)
    width = ceil_log2(n)
    for row in g.to_rotations():
        w.write_uint(len(row))
        w.write_uints(row, width)
    return w.build()


def anchored(row: list[int]) -> list[int]:
    """A cyclic rotation row turned to start at its smallest entry."""
    if not row:
        return row
    i = row.index(min(row))
    return row[i:] + row[:i]


def write_part_contour_into(
    w: BitWriter, g: EmbeddedGraph, part: Sequence[int], nbrs: Collection[int]
) -> tuple[list[int], frozenset]:
    """Write the part graph of ``part`` (the part with its neighborhood
    ``nbrs``, keeping every edge incident to the part but none between two
    neighborhood nodes) as its spanning-tree contour code (Turan, Discrete
    Appl. Math. 1984), read straight off g's darts.  ``nbrs`` must be
    ``g.neighbors_of_set(part)``; the caller has gathered it.  Returns
    (order, boundary): order[i] is the node of g the decoder labels i, and
    boundary holds the labels of the neighborhood nodes.

    The part graph must be connected, as every one the codec writes is: a
    part is a cluster of components around a center hook, or a whole
    component with no level.  A part graph that one DFS does not cover
    raises ChecksFailed.  So the code is one COMP, as ``read_contour``
    reads it.

    Layout: uint(m) for the part graph's m nodes, a flag (1 when it has a
    non-tree edge), uint(e) for its e edges and 2e symbols, 1 bit wide under
    flag 0 and 2 bits wide under flag 1.  The symbols walk the contour of a
    DFS tree from the smallest node of the part graph, in rotation order,
    skipping the darts between two neighborhood nodes: the root's walk
    starts at its first kept dart, every other node's just after the twin
    of the dart it was entered by.  A tree edge gives an open symbol (0) on
    the way down and a close symbol (1) on the way back; a non-tree edge,
    always a back edge of the DFS, gives an open symbol (2) at its
    descendant end and a close symbol (3) at its ancestor end.  On the
    sphere the non-tree symbols nest; a close that does not match the last
    open edge (a graph of positive genus) raises ChecksFailed.  A tree costs
    2(m-1) bits and any other part graph 4e, plus its flag and edge count.
    The decoder labels nodes in DFS preorder, with each node's first dart
    leading to its parent.  The root comes from ``part`` and ``nbrs`` with
    no walk."""
    node_of, nxt, first = g.node_of, g.nxt, g.first
    inside = set(part)
    m = len(inside) + len(nbrs)
    key = len(first)  # pending edges are keyed descendant * key + ancestor
    state: dict[int, int] = {}  # 1 on the DFS path, 2 finished
    root = min(min(part), min(nbrs, default=key))
    state[root] = 1
    vin = root in inside
    order = [root]
    boundary: list[int] = [] if vin else [0]
    syms: list[int] = []
    d = end = first[root]
    if d >= 0:
        v = root
        pending: list[int] = []
        stack: list[tuple[int, int, int, bool]] = []  # the walks paused above v
        while True:
            u = node_of[d ^ 1]
            if vin or u in inside:
                s = state.get(u)
                if s is None:  # tree edge down to u
                    syms.append(0)
                    state[u] = 1
                    uin = not vin or u in inside
                    if not uin:
                        boundary.append(len(order))
                    order.append(u)
                    t = d ^ 1
                    dn = nxt[t]
                    if dn != t:
                        stack.append((v, nxt[d], end, vin))
                        v, d, end, vin = u, dn, t, uin
                        continue
                    syms.append(1)  # u's only dart leads back up
                    state[u] = 2
                elif s == 1:  # back edge up to the ancestor u
                    syms.append(2)
                    pending.append(v * key + u)
                else:  # the same edge, met again from the ancestor v
                    if not pending or pending.pop() != u * key + v:
                        raise ChecksFailed(
                            f"part graph of {m} nodes is not plane: "
                            "its contour symbols do not nest"
                        )
                    syms.append(3)
            d = nxt[d]
            if d != end:
                continue
            state[v] = 2  # v's walk is done: resume the deepest open one
            while stack:
                syms.append(1)
                v, d, end, vin = stack.pop()
                if d != end:
                    break
                state[v] = 2
            else:
                break
    if len(order) != m:
        raise ChecksFailed(
            f"part graph of {m} nodes is not connected: its DFS reaches {len(order)}"
        )
    cyclic = len(syms) != 2 * (m - 1)
    w.write_uint(m)
    w.write_bit(cyclic)
    w.write_uint(len(syms) >> 1)
    w.write_uints(syms, 2 if cyclic else 1)
    return order, frozenset(boundary)


def read_contour(r: BitReader) -> tuple[list[int], list[int], list[int]]:
    """Read a contour code as the half-edge arrays ``(node_of, nxt,
    first)`` of its graph, with nodes in DFS preorder.  The code is
    uint(n), then one COMP of ``write_part_contour_into``'s layout, which
    must hold exactly n nodes.

    Each open symbol makes the next edge e, whose twin darts are 2e and
    2e + 1, so every dart is placed once and knows its twin as it is read.
    A tree open at v puts dart 2e at v and 2e + 1 at the new child, whose
    cycle starts there: every non-root node's ``first`` dart leads to its
    parent.  A non-tree open puts 2e at v and pushes 2e + 1, which the
    matching close places at the node it closes at.  A tree close closes
    v's cycle and climbs through ``node_of[first[v] ^ 1]``.

    Raises CodecError on a close with nothing open, a tree close at the
    root, opens left unmatched, or a node count other than the declared
    one.  A symbol run longer than the stream is refused before it is
    read, and ``first`` holds at most e + 1 nodes, the most a connected
    code of e edges reaches, whatever n is declared.  Self-loops and
    repeated edges are left to whoever builds the graph."""
    n = r.read_uint()
    cyclic = r.read_bit()
    e = r.read_uint()
    syms = r.read_uints(1 + cyclic, 2 * e)
    nd = 2 * e
    node_of = [0] * nd
    # One slot past the darts stands in for the root's missing predecessor:
    # it ends up holding the root's first dart.
    nxt = [0] * (nd + 1)
    first = [-1] * (min(n, e + 1) or 1)
    pending: list[int] = []  # the far darts of the open non-tree edges
    v = 0  # the root
    last = nd  # the dart placed last at v
    d = 0  # the next edge's first dart
    size = 1  # nodes so far
    try:
        if not cyclic:  # a tree: only tree symbols
            for s in syms:
                if s:
                    if not v:
                        raise CodecError("contour tree close at the root")
                    up = first[v]
                    nxt[last] = up
                    last = up ^ 1
                    v = node_of[last]
                else:
                    if size == n:
                        raise CodecError("contour code has more nodes than declared")
                    nxt[last] = d
                    node_of[d] = v
                    last = d + 1
                    node_of[last] = size
                    first[size] = last
                    v = size
                    size += 1
                    d += 2
        else:  # most symbols of a cyclic code are non-tree ones: test them first
            for s in syms:
                if s > 1:
                    if s == 2:
                        nxt[last] = d
                        node_of[d] = v
                        last = d
                        pending.append(d + 1)
                        d += 2
                    else:
                        if not pending:
                            raise CodecError("contour close with no open edge")
                        far = pending.pop()
                        nxt[last] = far
                        node_of[far] = v
                        last = far
                elif s:
                    if not v:
                        raise CodecError("contour tree close at the root")
                    up = first[v]
                    nxt[last] = up
                    last = up ^ 1
                    v = node_of[last]
                else:
                    if size == n:
                        raise CodecError("contour code has more nodes than declared")
                    nxt[last] = d
                    node_of[d] = v
                    last = d + 1
                    node_of[last] = size
                    first[size] = last
                    v = size
                    size += 1
                    d += 2
    except IndexError:  # more opens than the e edges, or nodes than e + 1
        raise CodecError("contour code leaves opens unmatched") from None
    if v or pending:
        raise CodecError("contour code leaves opens unmatched")
    root = nxt.pop()
    if nd:  # close the root's cycle
        first[0] = root
        nxt[last] = root
    if size != n:
        raise CodecError(f"contour code has {size} nodes, not the declared {n}")
    return node_of, nxt, first


def read_graph(r: BitReader) -> EmbeddedGraph:
    """Inverse of ``write_graph``.  Counts and labels are range-checked
    before the rows are built into a graph.  Raises CodecError on malformed
    input."""
    n = r.read_uint()
    if n > len(r):
        raise CodecError("declared node count exceeds stream size")
    width = ceil_log2(n)
    rows: list[list[int]] = []
    for _ in range(n):
        deg = r.read_uint()
        if deg >= n:
            raise CodecError("degree exceeds node count")
        row = r.read_uints(width, deg)
        if row and max(row) >= n:
            raise CodecError("neighbor label exceeds node count")
        rows.append(row)
    try:
        return EmbeddedGraph.from_rotations(rows)
    except InvalidEmbedding as e:
        raise CodecError(f"embedded rotation lists invalid: {e}") from e
