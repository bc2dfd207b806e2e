"""Brute-force reference implementations used to validate the real ones.

Everything here is deliberately naive and written independently of the
library's algorithms: set arithmetic instead of rotation surgery, try-all-
permutations isomorphism, exhaustive enumeration. Tests compare library
output against these on small inputs.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import combinations, permutations, product

import networkx as nx

from plancode.bits import BitReader, BitString, BitWriter
from plancode.embgraph import EmbeddedGraph, labeled_equal
from plancode.errors import ChecksFailed, InvalidEmbedding, TooSmall
from plancode.planar_sep import planarize
from plancode.separation import (
    LevelProfile,
    Scratch,
    ell,
    level_schedule,
    refine,
    trivial_separation,
)


def bit_reader(bits: BitString, pos: int = 0) -> BitReader:
    """A reader over the bits of a BitString, from bit ``pos``."""
    return BitReader(bits.to_bytes(), len(bits), pos)


def brute_iso(a: EmbeddedGraph, b: EmbeddedGraph) -> bool:
    """Orientation-preserving embedded isomorphism by trying all bijections."""
    if a.n != b.n or a.num_edges != b.num_edges:
        return False
    for perm in permutations(range(a.n)):
        if labeled_equal(a.relabel(list(perm)), b):
            return True
    return False


def _embedded_rep_rotations(n: int, connected_only: bool):
    """Rotation lists of every embedded graph on nodes 0..n-1, one
    representative per cyclic-rotation choice (first neighbor of each node
    pinned to its smallest, the rest permuted)."""
    all_edges = list(combinations(range(n), 2))
    for mask in range(1 << len(all_edges)):
        edges = [e for i, e in enumerate(all_edges) if mask >> i & 1]
        adj = [[] for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        if connected_only:
            seen = {0}
            stack = [0]
            while stack:
                u = stack.pop()
                for w in adj[u]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            if len(seen) != n:
                continue
        choices = []
        for u in range(n):
            row = sorted(adj[u])
            if len(row) <= 2:
                choices.append([row])
            else:
                choices.append([[row[0], *p] for p in permutations(row[1:])])
        yield from product(*choices)


def all_connected_embedded_graphs(n: int):
    """Every connected embedded graph on nodes 0..n-1, one representative per
    cyclic-rotation choice."""
    for rots in _embedded_rep_rotations(n, connected_only=True):
        yield EmbeddedGraph.from_rotations([list(r) for r in rots])


def nx_rotations(G: nx.Graph) -> list[list[int]] | None:
    """Clockwise rotation lists from networkx's planarity test, or None if
    the graph is not planar. Nodes must be 0..n-1."""
    ok, emb = nx.check_planarity(G)
    if not ok:
        return None
    return [list(emb.neighbors_cw_order(v)) for v in sorted(G.nodes)]


def to_nx(g: EmbeddedGraph) -> nx.Graph:
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
    return G


def induced_edges(g: EmbeddedGraph, nodes: set[int]) -> set[tuple[int, int]]:
    return {(u, v) for u, v in g.edges() if u in nodes and v in nodes}


def boundary_subgraph_edges(g: EmbeddedGraph, part: set[int]) -> set[tuple[int, int]]:
    """Edges of the part graph: everything incident to part, nothing between
    two outside nodes."""
    return {(u, v) for u, v in g.edges() if u in part or v in part}


# -- rotation-list oracles (independent of the library's internals) -------------
#
# These work on plain neighbor lists and use permutation search, so they share
# no algorithm with the library's BFS canonicalization or face bookkeeping.


def rot_edge_count(rots) -> int:
    return sum(len(r) for r in rots) // 2


def rot_component_count(rots) -> int:
    n = len(rots)
    seen = [False] * n
    comps = 0
    for s in range(n):
        if seen[s]:
            continue
        comps += 1
        seen[s] = True
        stack = [s]
        while stack:
            u = stack.pop()
            for w in rots[u]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
    return comps


def rot_face_lengths(rots) -> list[int]:
    """Dart-lengths of the face orbits of a rotation system: successor of
    dart (u -> v) is (v -> w) where w follows u in v's rotation."""
    pos = [{w: i for i, w in enumerate(r)} for r in rots]
    unvisited = {(u, v) for u, r in enumerate(rots) for v in r}
    lengths = []
    while unvisited:
        u0, v0 = next(iter(unvisited))
        length = 0
        u, v = u0, v0
        while True:
            unvisited.discard((u, v))
            length += 1
            i = pos[v][u]
            u, v = v, rots[v][(i + 1) % len(rots[v])]
            if (u, v) == (u0, v0):
                break
        lengths.append(length)
    return lengths


def rot_genus(rots) -> int:
    """Total genus over components, by the Euler formula. An isolated node
    has no dart orbit but bounds one face."""
    n = len(rots)
    m = rot_edge_count(rots)
    f = len(rot_face_lengths(rots)) + sum(1 for r in rots if not r)
    c = rot_component_count(rots)
    euler = n - m + f
    assert (2 * c - euler) % 2 == 0
    return (2 * c - euler) // 2


def reference_from_rotations(rotations):
    """``EmbeddedGraph.from_rotations`` in two passes, as (node_of, nxt,
    first): the first validates every entry and numbers the edges, the
    second places the darts.  Raises InvalidEmbedding with the library's
    messages."""
    n = len(rotations)
    first = [-1] * n
    edge_ids: dict[int, int] = {}
    for u, nbrs in enumerate(rotations):
        seen: set[int] = set()
        for v in nbrs:
            if not isinstance(v, int) or not 0 <= v < n:
                raise InvalidEmbedding(f"neighbor {v!r} out of range at node {u}")
            if v == u:
                raise InvalidEmbedding(f"self-loop at node {u}")
            if v in seen:
                raise InvalidEmbedding(f"repeated neighbor {v} at node {u}")
            seen.add(v)
            if u < v:
                edge_ids[u * n + v] = len(edge_ids)
    nd = 2 * len(edge_ids)
    node_of, nxt = [0] * nd, [0] * nd
    matched = 0
    for u, nbrs in enumerate(rotations):
        darts = []
        for v in nbrs:
            if u < v:
                d = 2 * edge_ids[u * n + v]
            else:
                e = edge_ids.get(v * n + u)
                if e is None:
                    raise InvalidEmbedding(f"edge ({u},{v}) missing from node {v}'s rotation")
                d = 2 * e + 1
                matched += 1
            node_of[d] = u
            darts.append(d)
        for i, d in enumerate(darts):
            nxt[d] = darts[(i + 1) % len(darts)]
        if darts:
            first[u] = darts[0]
    if matched != len(edge_ids):
        raise InvalidEmbedding("asymmetric rotation lists")
    return node_of, nxt, first


def rows_to_darts(rows) -> tuple[list[int], list[int], list[int]]:
    """Half-edge arrays (node_of, nxt, first) of rotation rows, as decode
    passes parts between its layers: each row's darts in its order, the
    first at ``first``.  The rows need not be simple: each entry u -> v is
    paired, in row order, with the first unpaired entry v -> u (a loop u -> u
    with the next u -> u of its row).  Raises ValueError when some entry
    finds no partner."""
    n = len(rows)
    first = [-1] * n
    node_of: list[int] = []
    waiting: dict[tuple[int, int], list[int]] = {}  # (u, v) -> u's darts awaiting v
    darts_of = []
    for u, row in enumerate(rows):
        darts = []
        for v in row:
            queue = waiting.get((v, u))
            if queue:
                d = queue.pop(0) ^ 1
            else:
                d = len(node_of)
                node_of += (u, v)
                waiting.setdefault((u, v), []).append(d)
            darts.append(d)
        darts_of.append(darts)
    if any(waiting.values()):
        raise ValueError("rows do not pair up")
    nxt = [0] * len(node_of)
    for u, darts in enumerate(darts_of):
        for i, d in enumerate(darts):
            nxt[d] = darts[(i + 1) % len(darts)]
        if darts:
            first[u] = darts[0]
    return node_of, nxt, first


def darts_to_rows(darts) -> list[list[int]]:
    """Rotation rows of half-edge arrays (node_of, nxt, first): per node, the
    heads of its cycle from its ``first`` dart."""
    node_of, nxt, first = darts
    rows = []
    for d0 in first:
        row = []
        if d0 >= 0:
            d = d0
            while True:
                row.append(node_of[d ^ 1])
                d = nxt[d]
                if d == d0:
                    break
        rows.append(row)
    return rows


def reference_euler(g: EmbeddedGraph) -> tuple[int, int]:
    """(genus, component count) of an embedded graph from a breadth-first
    component search and a separate trace of the faces, with the Euler
    formula checked per component."""
    comp = [-1] * g.n
    ncomp = 0
    for s in range(g.n):
        if comp[s] >= 0:
            continue
        comp[s] = ncomp
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in g.neighbors(u):
                if comp[w] < 0:
                    comp[w] = ncomp
                    queue.append(w)
        ncomp += 1
    nodes, edges, faces = [0] * ncomp, [0] * ncomp, [0] * ncomp
    for c in comp:
        nodes[c] += 1
    for u, _ in g.edges():
        edges[comp[u]] += 1
    for walk in g.faces():
        faces[comp[g.node_of[walk[0]]]] += 1
    genus = 0
    for c in range(ncomp):
        if edges[c]:
            deficiency = 2 - nodes[c] + edges[c] - faces[c]
            assert deficiency >= 0 and deficiency % 2 == 0
            genus += deficiency // 2
    return genus, ncomp


def rot_is_planar(rots) -> bool:
    return rot_genus(rots) == 0


def rot_is_plane_connected(rots) -> bool:
    return rot_component_count(rots) == 1 and rot_genus(rots) == 0


def rot_is_plane_triangulation(rots) -> bool:
    return (
        len(rots) >= 3
        and rot_component_count(rots) == 1
        and rot_genus(rots) == 0
        and all(length == 3 for length in rot_face_lengths(rots))
    )


def rot_is_forest_deg5(rots) -> bool:
    n = len(rots)
    return (
        all(len(r) <= 5 for r in rots)
        and rot_edge_count(rots) == n - rot_component_count(rots)
    )


ORACLE_PREDICATES = {
    "planar": (rot_is_planar, False),
    "plane-connected": (rot_is_plane_connected, True),
    "plane-triangulation": (rot_is_plane_triangulation, True),
    "forest-deg5": (rot_is_forest_deg5, False),
}


def _degree_class_perms(rots):
    """Node bijections into a normalized label space: nodes grouped by
    (degree, sorted neighbor degrees), groups assigned fixed consecutive
    label ranges in signature order, members permuted within their range.
    Isomorphic graphs get identical image spaces, so minimizing over these
    maps canonicalizes."""
    n = len(rots)
    sig = [(len(rots[v]), tuple(sorted(len(rots[w]) for w in rots[v]))) for v in range(n)]
    groups: dict[tuple, list[int]] = {}
    for v in range(n):
        groups.setdefault(sig[v], []).append(v)
    keys = sorted(groups)
    base = {}
    offset = 0
    for k in keys:
        base[k] = offset
        offset += len(groups[k])
    for assignment in product(*[permutations(range(len(groups[k]))) for k in keys]):
        perm = [0] * n
        for k, order in zip(keys, assignment):
            for old, pos in zip(groups[k], order):
                perm[old] = base[k] + pos
        yield perm


def oracle_canon(rots) -> tuple:
    """Canonical key of an embedded graph: the lexicographically smallest
    relabeled rotation table over all invariant-respecting bijections, each
    row rotated to start at its smallest neighbor."""
    best = None
    for perm in _degree_class_perms(rots):
        table = [None] * len(rots)
        for v, row in enumerate(rots):
            new_row = [perm[w] for w in row]
            if new_row:
                k = new_row.index(min(new_row))
                new_row = new_row[k:] + new_row[:k]
            table[perm[v]] = tuple(new_row)
        key = tuple(table)
        if best is None or key < best:
            best = key
    return best


_oracle_count_cache: dict[tuple[str, int], int] = {}


def oracle_class_count(name: str, m: int) -> int:
    """Number of isomorphism classes of embedded graphs on m nodes in the
    class, by exhaustive enumeration and permutation-search dedup."""
    try:
        return _oracle_count_cache[(name, m)]
    except KeyError:
        pass
    predicate, connected_only = ORACLE_PREDICATES[name]
    seen = set()
    for rots in _embedded_rep_rotations(m, connected_only):
        if predicate(rots):
            seen.add(oracle_canon(rots))
    _oracle_count_cache[(name, m)] = len(seen)
    return len(seen)


# -- shared fixtures and graph builders ----------------------------------------

K4_PLANAR = [[1, 3, 2], [2, 3, 0], [0, 3, 1], [0, 1, 2]]
K5_TORUS = [[1, 2, 3, 4], [0, 2, 3, 4], [0, 1, 4, 3], [0, 2, 1, 4], [0, 3, 1, 2]]
K7_TORUS = [[(i + a) % 7 for a in (1, 3, 2, 6, 4, 5)] for i in range(7)]
OCTAHEDRON = [[1, 2, 3, 4], [0, 4, 5, 2], [0, 1, 5, 3], [0, 2, 5, 4], [0, 3, 5, 1], [1, 4, 3, 2]]


def random_tree_rotations(n, rng):
    rots = [[] for _ in range(n)]
    for v in range(1, n):
        u = rng.randrange(v)
        rots[u].insert(rng.randrange(len(rots[u]) + 1), v)
        rots[v].append(u)
    return rots


def random_planar_embedded(n, p, rng):
    """Random connected planar graph embedded via networkx (independent of
    the library): a random stacked triangulation (new node into a random
    face, joined to its three corners) thinned down to the requested density
    while staying connected.

    p is a share of all n(n-1)/2 node pairs, not of the triangulation's
    3n-6 edges: the graph keeps ``int(p n(n-1)/2)`` edges, at least n-1 and
    at most 3n-6.  So any fixed p >= 6/(n-1) draws a full triangulation, and
    a sparse graph of about c*n/2 edges takes p = c/(n-1)."""
    if n == 1:
        return EmbeddedGraph.from_rotations([[]])
    if n == 2:
        return EmbeddedGraph.from_rotations([[1], [0]])
    G = nx.Graph()
    G.add_edges_from([(0, 1), (1, 2), (0, 2)])
    faces = [(0, 1, 2), (0, 1, 2)]  # both sides of the starting triangle
    for v in range(3, n):
        i = rng.randrange(len(faces))
        a, b, c = faces[i]
        G.add_edges_from([(v, a), (v, b), (v, c)])
        faces[i] = (a, b, v)
        faces += [(a, c, v), (b, c, v)]
    target = max(n - 1, min(G.number_of_edges(), int(p * n * (n - 1) / 2)))
    edges = list(G.edges())
    rng.shuffle(edges)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    kept, pool = [], []
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            kept.append((u, v))
        else:
            pool.append((u, v))
    kept += pool[: max(0, target - len(kept))]
    H = nx.Graph()
    H.add_nodes_from(range(n))
    H.add_edges_from(kept)
    return EmbeddedGraph.from_rotations(nx_rotations(H))


def grid_rotations(rows, cols):
    """Plane grid embedding: clockwise neighbor order up, right, down, left."""
    rots = []
    for i in range(rows):
        for j in range(cols):
            row = []
            if i > 0:
                row.append((i - 1) * cols + j)
            if j < cols - 1:
                row.append(i * cols + j + 1)
            if i < rows - 1:
                row.append((i + 1) * cols + j)
            if j > 0:
                row.append(i * cols + j - 1)
            rots.append(row)
    return rots


def torus_grid_rotations(k):
    """k x k grid on the torus (genus 1 for k >= 3): clockwise neighbor
    order up, right, down, left, wrapping around."""
    return [
        [((i - 1) % k) * k + j, i * k + (j + 1) % k, ((i + 1) % k) * k + j, i * k + (j - 1) % k]
        for i in range(k)
        for j in range(k)
    ]


def wheel_with_tails(rim, tail):
    """A wheel (hub and a rim cycle) with a pendant path hanging off two
    opposite rim nodes. BFS from a tail end then produces many thin levels
    and a fat middle, which exercises the cycle phase of the separator."""
    n_tail = 2 * tail
    hub = n_tail
    rim0 = n_tail + 1
    rots = [[] for _ in range(n_tail + 1 + rim)]
    for t in range(2):
        base = t * tail
        for i in range(tail):
            v = base + i
            if i > 0:
                rots[v].append(v - 1)
            if i < tail - 1:
                rots[v].append(v + 1)
    rots[hub] = [rim0 + i for i in range(rim)]
    for i in range(rim):
        v = rim0 + i
        rots[v] = [rim0 + (i - 1) % rim, rim0 + (i + 1) % rim, hub]
    # attach tail ends outside the rim cycle (between the rim neighbours)
    rots[rim0].insert(1, tail - 1)
    rots[tail - 1].append(rim0)
    far = rim0 + rim // 2
    rots[far].insert(1, n_tail - 1)
    rots[n_tail - 1].append(far)
    return rots


def antiprism_rotations(k):
    """The antiprism on 2k nodes, the circulant C_2k(1, 2) (k >= 3): node i
    is adjacent to i +- 1 and i +- 2 modulo 2k. Its two non-triangular faces
    are the cycles of the even and of the odd nodes."""
    n = 2 * k
    rots = []
    for i in range(n):
        a, b, c, d = ((i + s) % n for s in (2, 1, -1, -2))
        rots.append([a, b, c, d] if i % 2 == 0 else [d, c, b, a])
    return rots


def capped_antiprism_rotations(k):
    """The antiprism on 2k nodes with a cap node starring each of its two
    k-gon faces: a plane triangulation with minimum degree 4 (k = 5 gives
    the icosahedron)."""
    n = 2 * k
    rots = antiprism_rotations(k)
    for i, row in enumerate(rots):
        row.append(n + i % 2)
    rots.append(list(range(n - 2, -1, -2)))
    rots.append(list(range(1, n, 2)))
    return rots


def wheel_with_tail(rim, tail):
    """Hub 0 joined to the rim cycle 1..rim, plus a path of ``tail`` nodes
    hanging off rim node 1 into the outer face."""
    rots = [list(range(1, rim + 1))]
    for i in range(1, rim + 1):
        rots.append([1 if i == rim else i + 1, 0, rim if i == 1 else i - 1])
    prev = 1
    for t in range(tail):
        v = rim + 1 + t
        if prev == 1:
            rots[1].insert(rots[1].index(rim) + 1, v)
        else:
            rots[prev].append(v)
        rots.append([prev])
        prev = v
    return rots


def bounded_degree_tree_rotations(n, rng, max_degree=5):
    """Random recursive plane tree whose nodes have degree <= max_degree:
    each new node hangs off a uniformly chosen node that still has room,
    at a random rotation slot."""
    rots = [[]]
    room = [0]
    for v in range(1, n):
        k = rng.randrange(len(room))
        u = room[k]
        rots[u].insert(rng.randrange(len(rots[u]) + 1), v)
        rots.append([u])
        if len(rots[u]) >= max_degree:
            room[k] = room[-1]
            room.pop()
        room.append(v)
    return rots


def fine_level_schedule(n):
    """A schedule finer than ``level_schedule``, for tests whose subject is a
    level on a small host: at lam = ell(n, 2), one level of r = ceil(lam^2)
    and cap ceil(lam^4) where the cap binds.  Hosts of 7 to 10 nodes and of
    26 nodes on get that level; ``level_schedule`` gives none below 73."""
    lam = ell(n, 2)
    cap = math.ceil(lam**4)
    if cap >= n:
        return []
    return [LevelProfile(r=math.ceil(lam * lam), cap=cap)]


# A level finer than any of ``level_schedule``'s: nodes of degree above 3 join
# the center, and the rest is cut into components of at most 2 nodes, which
# make parts of at most 2 nodes.
FINE_PROFILE = LevelProfile(r=3, cap=2)


def separation_chain(host, profiles):
    """[trivial, one level per profile] on a connected host, refined as
    ``build_separations`` refines: the handle-cutting nodes join every
    center.  Tests use it to chain more levels than the codec builds."""
    nodes = list(range(host.n))
    cut = planarize(host)
    scratch = Scratch(host)
    seps = [trivial_separation(host, nodes)]
    for prof in profiles:
        seps.append(refine(host, nodes, seps[-1], prof, cut, scratch))
    return seps


def two_level_chain(host):
    """The host's own separation levels followed by ``FINE_PROFILE``: two
    levels or more from 73 nodes on."""
    return separation_chain(host, level_schedule(host.n) + [FINE_PROFILE])


def interleaved_union(parts, rng) -> EmbeddedGraph:
    """The disjoint union of the rotation rows ``parts`` as one graph, its
    node labels shuffled so that the components' labels interleave."""
    rows, offset = [], 0
    for part in parts:
        rows += [[v + offset for v in row] for row in part]
        offset += len(part)
    perm = list(range(len(rows)))
    rng.shuffle(perm)
    return EmbeddedGraph.from_rotations(rows).relabel(perm)


def centroid_by_min(order: list[int], up: list[int]) -> int:
    """``sep_split._centroid`` by a minimum over every node: the order
    index of the tree node, given by ``order`` and parent indices ``up``
    (each below its child's), whose removal leaves the smallest largest
    component, ties to the smallest label."""
    n = len(order)
    size = [1] * n
    heavy = [0] * n  # per node, its largest child subtree
    for i in range(n - 1, 0, -1):
        p, s = up[i], size[i]
        size[p] += s
        if s > heavy[p]:
            heavy[p] = s
    return min(range(n), key=lambda i: (max(heavy[i], n - size[i]), order[i]))


def coarse_ranges(sep) -> list[tuple[int, int, int]]:
    """Contiguous runs of a separation's parts per previous-level part: a
    list of (prev_index, first, last+1) over part indices 1..p, in order."""
    runs: list[tuple[int, int, int]] = []
    i = 1
    while i <= sep.p:
        j = i
        while j <= sep.p and sep.prev_part[j] == sep.prev_part[i]:
            j += 1
        runs.append((sep.prev_part[i], i, j))
        i = j
    return runs


class PartGraph:
    """Result of ``part_graph``: the subgraph, original ids of its nodes, and
    which (local) nodes are boundary."""

    __slots__ = ("graph", "ids", "boundary")

    def __init__(self, graph: EmbeddedGraph, ids: list[int], boundary: frozenset):
        self.graph = graph
        self.ids = ids
        self.boundary = boundary


def part_graph(g: EmbeddedGraph, part) -> PartGraph:
    """The embedded subgraph on part + its neighborhood, keeping every edge
    incident to the part but none between two neighborhood nodes, built as a
    graph from its rotation rows.  The reference for ``EmbeddedGraph.part_rows``
    and the codec's part writer, which never build it."""
    ps = set(part)
    boundary = g.neighbors_of_set(ps)
    ids = sorted(ps | boundary)
    idx = {v: i for i, v in enumerate(ids)}
    rows = [[idx[w] for w in g.neighbors(v) if v in ps or w in ps] for v in ids]
    sub = EmbeddedGraph.from_rotations(rows)
    return PartGraph(graph=sub, ids=ids, boundary=frozenset(idx[v] for v in boundary))


def write_contour_into(w: BitWriter, rows) -> list[int]:
    """Write a plane graph given as rotation rows as its spanning-tree
    contour code (Turan, Discrete Appl. Math. 1984), and return the node
    order it fixes: order[i] is the row whose node the decoder labels i.
    The reference for ``embgraph.write_part_contour_into``, which walks the
    host's darts instead of rows: on the rows of ``part_graph(g, part)``,
    each read from its node's first dart, it writes the same bits.

    Layout: uint(n), then per component, in order of its smallest row
    label, a flag (1 when it has a non-tree edge), uint(e) for its e edges
    and 2e symbols, 1 bit wide under flag 0 and 2 bits wide under flag 1.
    The symbols walk the contour of a DFS tree in rotation order: the root's
    walk starts at its row's first entry, every other node's just after its
    parent.  A tree edge gives an open symbol (0) on the way down and a close
    symbol (1) on the way back; a non-tree edge, always a back edge of the
    DFS, gives an open symbol (2) at its descendant end and a close symbol
    (3) at its ancestor end.  On the sphere the non-tree symbols nest; a
    close that does not match the last open edge (a graph of positive genus)
    raises ChecksFailed.  A tree component costs 2(n-1) bits and any other
    4e, plus its flag and edge count.  The decoder, ``read_contour``, reads
    a code of one component only, as the codec writes; it labels nodes in
    DFS preorder, with each row starting at the node's parent."""
    n = len(rows)
    w.write_uint(n)
    state = bytearray(n)  # 0 unseen, 1 on the DFS path, 2 finished
    order: list[int] = []
    for root in range(n):
        if state[root]:
            continue
        start = len(order)
        state[root] = 1
        order.append(root)
        syms: list[int] = []
        pending: list[int] = []  # open non-tree edges, descendant * n + ancestor
        path = [root]
        walks = [iter(rows[root])]
        while walks:
            v = path[-1]
            for u in walks[-1]:
                s = state[u]
                if not s:  # tree edge down to u
                    syms.append(0)
                    state[u] = 1
                    order.append(u)
                    row = rows[u]
                    j = row.index(v)
                    path.append(u)
                    walks.append(iter(row[j + 1 :] + row[:j]))
                    break
                if s == 1:  # back edge up to the ancestor u
                    syms.append(2)
                    pending.append(v * n + u)
                else:  # the same edge, met again from the ancestor v
                    if not pending or pending.pop() != u * n + v:
                        raise ChecksFailed(
                            f"part graph of {n} nodes is not plane: "
                            "its contour symbols do not nest"
                        )
                    syms.append(3)
            else:
                walks.pop()
                state[path.pop()] = 2
                if path:
                    syms.append(1)
        cyclic = len(syms) != 2 * (len(order) - start - 1)
        w.write_bit(cyclic)
        w.write_uint(len(syms) >> 1)
        w.write_uints(syms, 2 if cyclic else 1)
    return order


def triangulate(g: EmbeddedGraph) -> EmbeddedGraph:
    """Ear-clipping triangulation of a copy of g, every face in order of
    smallest dart, with one adjacency set over all darts.  The reference
    for ``plancode.embgraph.triangulate``, which traces and clips only the
    faces that are not triangles, and for the cycle phase, which
    triangulates its contraction in place."""
    if g.n < 3:
        raise TooSmall("triangulation needs at least 3 nodes")
    if not g.connected:
        raise InvalidEmbedding("triangulate requires a connected graph")
    out = g.copy()
    n = out.n
    node_of = out.node_of
    adj = {node_of[d] * n + node_of[d ^ 1] for d in range(len(node_of))}
    if out.num_edges == 0:
        raise InvalidEmbedding("triangulate requires at least one edge")
    for walk in out.faces():
        _clip_face(out, walk, adj)
    return out


def _before(g: EmbeddedGraph, d: int) -> int:
    """The dart before d in its node's clockwise rotation."""
    p = d
    while g.nxt[p] != d:
        p = g.nxt[p]
    return p


def _clip_face(g: EmbeddedGraph, walk: list[int], adj: set[int]) -> None:
    """Clip ears off one face walk until it is a triangle, each chord added
    with ``insert_chord``; ``adj`` is the live global adjacency set.  The
    dart before each corner is found by walking its node's rotation."""
    s = len(walk)
    if s <= 3:
        return
    n = g.n
    nxt_pos = list(range(1, s)) + [0]
    prv_pos = [s - 1] + list(range(s - 1))
    dart = walk[:]
    node = [g.node_of[d] for d in walk]
    alive = [True] * s
    remaining = s
    cand = deque(range(s))
    while remaining > 3:
        if not cand:
            raise InvalidEmbedding("face cannot be triangulated by chords (non-planar face)")
        i = cand.popleft()
        if not alive[i]:
            continue
        ip, iq = prv_pos[i], nxt_pos[i]
        a, b = node[ip], node[iq]
        if a == b or (a * n + b) in adj:
            continue
        ea, _eb = g.insert_chord(_before(g, dart[ip]), _before(g, dart[iq]))
        adj.add(a * n + b)
        adj.add(b * n + a)
        dart[ip] = ea
        alive[i] = False
        remaining -= 1
        nxt_pos[ip] = iq
        prv_pos[iq] = ip
        cand.append(ip)
        cand.append(iq)
