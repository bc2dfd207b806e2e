import math
import random
from dataclasses import dataclass, field

import pytest

import plancode.planar_sep as planar_sep
from plancode.embgraph import EmbeddedGraph
from plancode.errors import ChecksFailed
from plancode.planar_sep import bfs_tree, decompose_cut, planarize

from oracles import (
    K4_PLANAR,
    K5_TORUS,
    K7_TORUS,
    OCTAHEDRON,
    all_connected_embedded_graphs,
    bounded_degree_tree_rotations,
    centroid_by_min,
    grid_rotations,
    random_planar_embedded,
    random_tree_rotations,
    wheel_with_tails,
)
from sep_split import _centroid, planar_separator


def check_separator(g, s, s1, s2, c_sep=4.0):
    """Validates a separator from the graph and the three sets alone,
    without using any library internals."""
    n = g.n
    assert len(s) + len(s1) + len(s2) == n
    assert s | s1 | s2 == set(range(n))
    assert not (s & s1) and not (s & s2) and not (s1 & s2)
    assert len(s1) <= 2 * n / 3 + 1e-9
    assert len(s2) <= 2 * n / 3 + 1e-9
    assert len(s) <= c_sep * math.sqrt(n)
    for u, v in g.edges():
        crossing = (u in s1 and v in s2) or (u in s2 and v in s1)
        assert not crossing, f"edge {u}-{v} crosses the separator"


def separated_components(g, cut):
    """Component node sets of g minus the cut set, computed by plain set
    BFS over the edge list."""
    adj = [[] for _ in range(g.n)]
    for u, v in g.edges():
        adj[u].append(v)
        adj[v].append(u)
    seen = set(cut)
    comps = []
    for s in range(g.n):
        if s in seen:
            continue
        comp = {s}
        seen.add(s)
        queue = [s]
        while queue:
            u = queue.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    comp.add(w)
                    queue.append(w)
        comps.append(comp)
    return comps


# -- bfs ------------------------------------------------------------------------


def test_bfs_tree_depths_and_parents():
    g = EmbeddedGraph.from_rotations(grid_rotations(4, 4))
    order, parent_dart, depth = bfs_tree(g, 0)
    assert sorted(order) == list(range(16))
    assert depth[0] == 0 and parent_dart[0] == -1
    for v in range(1, 16):
        p = g.head(parent_dart[v])
        assert depth[p] == depth[v] - 1
        assert g.has_edge(v, p)
    # grid BFS depth from a corner is the Manhattan distance
    for i in range(4):
        for j in range(4):
            assert depth[i * 4 + j] == i + j


def test_bfs_tree_unreachable_marked():
    g = EmbeddedGraph.from_rotations([[1], [0], [3], [2]])
    order, parent_dart, depth = bfs_tree(g, 0)
    assert set(order) == {0, 1}
    assert depth[2] == depth[3] == -1


# -- separator on specific graphs ------------------------------------------------


def test_separator_trivial_sizes():
    # a single node goes into the separator: a side of one node would
    # already exceed two thirds of one
    g = EmbeddedGraph.from_rotations([[]])
    assert planar_separator(g) == ({0}, set(), set())
    g = EmbeddedGraph.from_rotations([[1], [0]])
    s, s1, s2 = planar_separator(g)
    check_separator(g, s, s1, s2)
    assert s  # an edge forces one endpoint into the separator
    g = EmbeddedGraph.from_rotations([[], []])
    s, s1, s2 = planar_separator(g)
    assert s == set() and {len(s1), len(s2)} == {1}


def test_separator_small_named_graphs():
    for rots in (K4_PLANAR, OCTAHEDRON, grid_rotations(3, 3)):
        g = EmbeddedGraph.from_rotations(rots)
        s, s1, s2 = planar_separator(g)
        check_separator(g, s, s1, s2)


def test_separator_exhaustive_small_planar():
    seen = 0
    for n in range(1, 5):
        for g in all_connected_embedded_graphs(n):
            if g.genus() != 0:
                continue
            s, s1, s2 = planar_separator(g)
            check_separator(g, s, s1, s2)
            seen += 1
    assert seen > 50


def test_separator_paths_and_stars():
    for n in (3, 10, 101):
        path = EmbeddedGraph.from_rotations(
            [[1]] + [[i - 1, i + 1] for i in range(1, n - 1)] + [[n - 2]]
        )
        s, s1, s2 = planar_separator(path)
        check_separator(path, s, s1, s2)
    star = EmbeddedGraph.from_rotations([list(range(1, 20))] + [[0]] * 19)
    s, s1, s2 = planar_separator(star)
    check_separator(star, s, s1, s2)
    assert s == {0}  # removing the hub splits a star perfectly


def test_separator_grids():
    for rows, cols in ((5, 5), (3, 40), (12, 11)):
        g = EmbeddedGraph.from_rotations(grid_rotations(rows, cols))
        s, s1, s2 = planar_separator(g)
        check_separator(g, s, s1, s2)


def test_separator_random_trees():
    rng = random.Random(7)
    for n in (5, 30, 200, 500):
        g = EmbeddedGraph.from_rotations(random_tree_rotations(n, rng))
        s, s1, s2 = planar_separator(g)
        check_separator(g, s, s1, s2)


def _brute_centroid(g):
    """The node whose removal leaves the smallest largest component, ties
    to the smallest node, by trying every node."""
    return min(
        range(g.n),
        key=lambda v: (max(map(len, separated_components(g, {v})), default=0), v),
    )


def test_separator_cuts_trees_at_their_centroid():
    rng = random.Random(1869)
    trees = [EmbeddedGraph.from_rotations([[]])]
    for n in (2, 3, 10, 101, 300):
        trees.append(EmbeddedGraph.from_rotations(
            [[1]] + [[i - 1, i + 1] for i in range(1, n - 1)] + [[n - 2]]
        ))
    for n in (3, 7, 60):
        trees.append(EmbeddedGraph.from_rotations([list(range(1, n))] + [[0]] * (n - 1)))
    for n in (4, 25, 150, 300):
        trees.append(EmbeddedGraph.from_rotations(bounded_degree_tree_rotations(n, rng)))
        trees.append(EmbeddedGraph.from_rotations(random_tree_rotations(n, rng)))
    for g in trees:
        s, s1, s2 = planar_separator(g)
        check_separator(g, s, s1, s2)
        assert s == {_brute_centroid(g)}
        assert all(2 * len(c) <= g.n for c in separated_components(g, s))


def _random_order_tree(n, rng):
    """A tree as ``_centroid`` takes it: parent indices, each below its
    child's, and distinct node labels in random order."""
    return rng.sample(range(10 * n), n), [-1] + [rng.randrange(i) for i in range(1, n)]


def test_centroid_walk_agrees_with_the_minimum_over_all_nodes():
    rng = random.Random(2538)
    for _ in range(2000):
        n = rng.randrange(1, 40)
        order, up = _random_order_tree(n, rng)
        assert _centroid(order, up) == centroid_by_min(order, up)
        # Two trees of k nodes joined by an edge from a to k: both ends
        # leave k nodes on the other side, so both are centroids, and the
        # smaller label is taken.
        k = rng.randrange(1, 20)
        order, up = _random_order_tree(2 * k, rng)
        a = rng.randrange(k)
        up[k:] = [a] + [rng.randrange(k, i) for i in range(k + 1, 2 * k)]
        want = a if order[a] < order[k] else k
        assert centroid_by_min(order, up) == want
        assert _centroid(order, up) == want


def test_separator_tree_plus_chord_runs_the_cycle_phase(monkeypatch):
    # The recursive tree's shallow levels leave a heavy middle belt.  As a
    # tree it is cut at its centroid; one chord more and it is no tree, so
    # the belt goes to the cycle phase.
    calls = []
    contract = planar_sep._contract_inner
    monkeypatch.setattr(
        planar_sep, "_contract_inner", lambda *a: calls.append(1) or contract(*a)
    )
    rows = random_tree_rotations(300, random.Random(0))
    g = EmbeddedGraph.from_rotations(rows)
    planar_separator(g)
    assert not calls
    leaves = [v for v in range(g.n) if len(rows[v]) == 1]
    g.insert_chord(g.first[leaves[0]], g.first[leaves[-1]])  # a tree has one face
    assert g.num_edges == g.n and g.genus() == 0
    s, s1, s2 = planar_separator(g)
    check_separator(g, s, s1, s2)
    assert calls


def test_separator_random_planar():
    rng = random.Random(19)
    for n, p in ((20, 0.3), (60, 0.12), (120, 0.05)):
        g = random_planar_embedded(n, p, rng)
        s, s1, s2 = planar_separator(g)
        check_separator(g, s, s1, s2)


def test_separator_cycle_phase_triggers():
    # thin tails with a fat wheel in the middle force the fundamental-cycle
    # phase: no pair of cut levels alone leaves a light middle
    g = EmbeddedGraph.from_rotations(wheel_with_tails(30, 5))
    s, s1, s2 = planar_separator(g)
    check_separator(g, s, s1, s2)
    # the wheel (31 nodes of 41) must have been split, not swallowed whole
    assert max(len(s1), len(s2)) <= 2 * g.n / 3


def test_separator_cycle_phase_larger():
    rng = random.Random(3)
    for rim in (48, 90):
        g = EmbeddedGraph.from_rotations(wheel_with_tails(rim, 6))
        s, s1, s2 = planar_separator(g)
        check_separator(g, s, s1, s2)


def test_separator_disconnected_small_components():
    # forest of 7 paths of 6 nodes: no separator nodes needed at all
    rots = []
    for c in range(7):
        base = c * 6
        rots += (
            [[base + 1]]
            + [[base + i - 1, base + i + 1] for i in range(1, 5)]
            + [[base + 4]]
        )
    g = EmbeddedGraph.from_rotations(rots)
    s, s1, s2 = planar_separator(g)
    check_separator(g, s, s1, s2)
    assert s == set()


def test_separator_disconnected_with_dominant_component():
    # one 7x7 grid (49 nodes) plus two isolated nodes: the big component
    # holds > 2/3 of the weight and must itself be separated
    rots = grid_rotations(7, 7) + [[], []]
    g = EmbeddedGraph.from_rotations(rots)
    s, s1, s2 = planar_separator(g)
    check_separator(g, s, s1, s2)
    assert s


def test_separator_deterministic():
    rng = random.Random(11)
    g = random_planar_embedded(80, 0.1, rng)
    first = planar_separator(g)
    for _ in range(3):
        assert planar_separator(g) == first


# -- decompositions ----------------------------------------------------------------


@dataclass
class SeparatorTree:
    """Rooted tree of disjoint node sets partitioning the graph's nodes.
    Leaves are singletons; each internal vertex's set separates the graph
    induced on its offspring (its set plus all descendants' sets)."""

    nodes: frozenset
    children: list = field(default_factory=list)
    offspring: int = 0

    def walk(self):
        yield self
        for c in self.children:
            yield from c.walk()


def build_decomposition(g, ids=None):
    """Full separator decomposition down to singleton leaves; ids[v] names
    node v of g in the tree (default: v itself)."""
    if ids is None:
        ids = list(range(g.n))
    if g.n == 1:
        return SeparatorTree(frozenset({ids[0]}), [], 1)
    s, s1, s2 = planar_separator(g)
    children = []
    for side in (s1, s2):
        if side:
            sub, sids = g.induced(side)
            children.append(build_decomposition(sub, [ids[v] for v in sids]))
    return SeparatorTree(frozenset(ids[v] for v in s), children, g.n)


def check_decomposition(g, tree, c_sep=4.0):
    """Full structural audit of a separator decomposition from the tree and
    the graph alone: disjoint sets partitioning the nodes, singleton leaves,
    offspring bookkeeping, per-vertex separator size and balance, and
    non-adjacency of the two child branches at every internal vertex."""
    vertices = list(tree.walk())
    all_nodes = [v for t in vertices for v in t.nodes]
    assert len(all_nodes) == len(set(all_nodes)) == g.n
    assert set(all_nodes) == set(range(g.n))
    edges = list(g.edges())
    for t in vertices:
        assert t.offspring == len(t.nodes) + sum(c.offspring for c in t.children)
        if not t.children:
            assert len(t.nodes) == 1
            assert t.offspring == 1
            continue
        assert len(t.nodes) <= c_sep * math.sqrt(t.offspring)
        branches = []
        for c in t.children:
            assert c.offspring <= 2 * t.offspring / 3 + 1e-9
            branches.append({v for sub in c.walk() for v in sub.nodes})
        if len(branches) == 2:
            a, b = branches
            assert not a & b
            for u, v in edges:
                assert not ((u in a and v in b) or (u in b and v in a))


def test_build_decomposition_path():
    n = 40
    g = EmbeddedGraph.from_rotations(
        [[1]] + [[i - 1, i + 1] for i in range(1, n - 1)] + [[n - 2]]
    )
    tree = build_decomposition(g)
    check_decomposition(g, tree)


def test_build_decomposition_grid_and_random():
    rng = random.Random(23)
    for g in (
        EmbeddedGraph.from_rotations(grid_rotations(6, 7)),
        random_planar_embedded(90, 0.08, rng),
        EmbeddedGraph.from_rotations(random_tree_rotations(150, rng)),
    ):
        tree = build_decomposition(g)
        check_decomposition(g, tree)


def test_build_decomposition_singleton():
    g = EmbeddedGraph.from_rotations([[]])
    tree = build_decomposition(g)
    assert tree.nodes == frozenset({0}) and not tree.children


def test_decompose_cut_limits_component_sizes():
    rng = random.Random(31)
    for n, limit in ((100, 10), (300, 30), (300, 75)):
        g = random_planar_embedded(n, 0.07, rng)
        cut, comps = decompose_cut(g, range(g.n), limit)
        for comp in separated_components(g, cut):
            assert len(comp) <= limit
        assert comps == g.components(cut)
        # the cut touches a vanishing fraction: crude sanity bound
        assert len(cut) <= n / 2


def test_decompose_cut_leaves_components_within_the_limit_whole():
    # 250 nodes are over the limit, but each tree is within it: nothing is
    # cut, though the 200-node tree is over 2/3 of the two together
    rng = random.Random(214)
    big = bounded_degree_tree_rotations(200, rng)
    small = bounded_degree_tree_rotations(50, rng)
    g = EmbeddedGraph.from_rotations(big + [[v + 200 for v in row] for row in small])
    assert decompose_cut(g, range(g.n), 214) == (set(), [list(range(200)), list(range(200, 250))])


def test_decompose_cut_cuts_trees_bottom_up_within_the_limit():
    # One bottom-up pass: every cut node takes more than limit nodes with
    # it, so at most n // (limit + 1) nodes are cut
    rng = random.Random(1977)
    for _ in range(30):
        n = rng.randrange(300, 3001)
        limit = rng.randrange(2, n // 4)
        g = EmbeddedGraph.from_rotations(bounded_degree_tree_rotations(n, rng))
        cut, comps = decompose_cut(g, range(g.n), limit)
        assert len(cut) <= n // (limit + 1)
        assert all(len(comp) <= limit for comp in separated_components(g, cut))
        assert comps == g.components(cut)


def test_decompose_cut_fails_on_a_separation_that_cuts_nothing(monkeypatch):
    # A component over the limit that comes back whole would go back on the
    # worklist for ever; no valid cut of it is empty, so it fails at once.
    # The fake raises on a second call, so a missing check fails the test
    # instead of hanging it.
    calls = []

    def cuts_nothing(host, comp, st, limit):
        if calls:
            raise AssertionError("a separation that cut nothing was tried again")
        calls.append(comp)
        return set(), [comp]

    monkeypatch.setattr(planar_sep, "_separate_connected", cuts_nothing)
    g = EmbeddedGraph.from_rotations(grid_rotations(4, 4))
    with pytest.raises(ChecksFailed, match="cut nothing"):
        decompose_cut(g, range(g.n), 8)
    assert calls == [list(range(16))]


def test_decompose_cut_noop_when_small():
    g = EmbeddedGraph.from_rotations(grid_rotations(4, 4))
    assert decompose_cut(g, range(g.n), 16) == (set(), [list(range(16))])
    assert decompose_cut(g, range(g.n), 100) == (set(), [list(range(16))])


def test_decompose_cut_rejects_bad_limit():
    g = EmbeddedGraph.from_rotations([[]])
    with pytest.raises(ValueError):
        decompose_cut(g, range(g.n), 0)


def test_decompose_cut_singleton_limit():
    g = EmbeddedGraph.from_rotations(grid_rotations(3, 3))
    cut, comps = decompose_cut(g, range(g.n), 1)
    for comp in separated_components(g, cut):
        assert len(comp) == 1
    assert comps == [[v] for v in range(g.n) if v not in cut]


# -- planarizer ----------------------------------------------------------------------


def check_planarized(g, removed):
    rest = [v for v in range(g.n) if v not in removed]
    sub, _ = g.induced(rest)
    assert sub.genus() == 0


def test_planarize_noop_on_planar():
    rng = random.Random(41)
    assert planarize(EmbeddedGraph.from_rotations(K4_PLANAR)) == set()
    assert planarize(random_planar_embedded(60, 0.1, rng)) == set()


def test_planarize_torus_graphs():
    for rots in (K5_TORUS, K7_TORUS):
        g = EmbeddedGraph.from_rotations(rots)
        removed = planarize(g)
        assert removed
        check_planarized(g, removed)


def test_planarize_component_wise():
    # K5 on the torus next to a planar grid: only the K5 loses nodes
    k5 = K5_TORUS
    grid = [[v + 5 for v in row] for row in grid_rotations(3, 3)]
    g = EmbeddedGraph.from_rotations([list(r) for r in k5] + grid)
    removed = planarize(g)
    assert removed and removed <= set(range(5))
    check_planarized(g, removed)


def test_planarize_bounded_size():
    # fundamental cycles of 2*genus leftover edges: for these fixtures the
    # BFS tree is shallow, so only a handful of nodes may be removed
    for rots, bound in ((K5_TORUS, 5), (K7_TORUS, 7)):
        g = EmbeddedGraph.from_rotations(rots)
        assert len(planarize(g)) <= bound


# -- interplay: separator after planarizing --------------------------------------


def test_separator_after_planarize():
    g = EmbeddedGraph.from_rotations(K7_TORUS)
    removed = planarize(g)
    rest = [v for v in range(g.n) if v not in removed]
    sub, _ = g.induced(rest)
    s, s1, s2 = planar_separator(sub)
    check_separator(sub, s, s1, s2)
