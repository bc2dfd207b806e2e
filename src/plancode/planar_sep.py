"""Separator decompositions and the planarizer.

``decompose_cut`` cuts a node set of a host graph into components of at
most a given size, for the fragmenter.  It keeps a worklist of components:
one within the size is kept as it is, and a larger one is separated whole,
its components going back on the list, so only what is over the size is
ever cut.  A tree component (n - 1 edges, counted by the BFS that walks it
anyway) is cut in one bottom-up pass, after Kundu & Misra: a node whose
uncut subtree is over the size is cut, which leaves every component within
the size and cuts at most n // (size + 1) nodes.  Every other component
takes the classical construction, which leaves components of at most 2n/3
nodes: BFS levels from the smallest node, an optimal pair of cut levels
around the median, and — when the middle belt is still too heavy — a
fundamental-cycle separator of the middle with the inner levels contracted
to a single zero-weight supernode.

Everything runs on one host graph. A component is a sorted list of host
nodes, membership is a stamp per node, and every step walks the host's
rotations and skips the darts that leave the component. Because its nodes
keep their host order, every choice is made as it would be on the induced
subgraph: BFS from the smallest node, components by smallest node, and a
rotation read from each node's ``first`` dart. So the cuts equal those of
the same worklist on induced copies. Only the cycle phase builds a graph: it
builds the contraction H of one component once, with ``from_rotations``, the
supernode's row read off one walk around a BFS tree of the inner levels, and
triangulates H in place; the balanced cycle is then found with one walk over
H's triangles and one pass back up it.  The top of a non-tree edge's
fundamental cycle (the lowest common ancestor of its ends) is the shallowest
node of the triangles the cycle encloses: the walk is rooted at a triangle
on the supernode, node 0, so node 0 is never strictly inside, and the tree
path from an enclosed node to node 0 crosses the cycle at a shallower node.
So the pass that sums enclosed triangles also folds their minimum depth, and
no ancestor search is made.

``planarize`` removes handles: for each positive-genus component it picks a
BFS tree, matches faces through the edges not in the tree (the dual spanning
structure), and returns the nodes of the fundamental cycles of the 2*genus
leftover edges. Deleting them leaves a genus-0 graph.
"""

from __future__ import annotations

from typing import Iterable

from .constants import SIDE_FRACTION
from .embgraph import EmbeddedGraph, _triangulate_into
from .errors import ChecksFailed

__all__ = [
    "Stamps",
    "bfs_tree",
    "components_in",
    "decompose_cut",
    "planarize",
]


def bfs_tree(g: EmbeddedGraph, root: int) -> tuple[list[int], list[int], list[int]]:
    """Deterministic BFS following rotation order from each node's smallest
    dart. Returns (order, parent_dart, depth); parent_dart[v] is the dart
    from v to its parent (-1 at the root and for unreachable nodes)."""
    parent_dart = [-1] * g.n
    depth = [-1] * g.n
    depth[root] = 0
    order = [root]
    qi = 0
    nxt, node_of = g.nxt, g.node_of
    while qi < len(order):
        u = order[qi]
        qi += 1
        d0 = g.first[u]
        if d0 < 0:
            continue
        d = d0
        while True:
            w = node_of[d ^ 1]
            if depth[w] < 0:
                depth[w] = depth[u] + 1
                parent_dart[w] = d ^ 1
                order.append(w)
            d = nxt[d]
            if d == d0:
                break
    return order, parent_dart, depth


def _tree_edges(g: EmbeddedGraph, parent_dart: list[int]) -> bytearray:
    """Flags, per edge, whether a parent dart (as from bfs_tree) lies on it."""
    tree_edge = bytearray(g.num_edges)
    for d in parent_dart:
        if d >= 0:
            tree_edge[d >> 1] = 1
    return tree_edge


def _face_tree(
    g: EmbeddedGraph, tree_edge: bytearray, face_of: list[int], nfaces: int, root: int
) -> tuple[list[int], list[list[tuple[int, int]]]]:
    """Depth-first spanning tree of g's faces, linked through the edges not
    in tree_edge, from face root.  Returns (faces in discovery order, per
    face its (child face, edge) pairs)."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(nfaces)]
    for e in range(g.num_edges):
        if tree_edge[e]:
            continue
        f1, f2 = face_of[2 * e], face_of[2 * e + 1]
        adj[f1].append((f2, e))
        adj[f2].append((f1, e))
    children: list[list[tuple[int, int]]] = [[] for _ in range(nfaces)]
    seen = bytearray(nfaces)
    seen[root] = 1
    order = [root]
    stack = [root]
    while stack:
        f = stack.pop()
        for f2, e in adj[f]:
            if not seen[f2]:
                seen[f2] = 1
                children[f].append((f2, e))
                stack.append(f2)
                order.append(f2)
    if len(order) != nfaces:
        raise ChecksFailed("dual spanning structure incomplete")
    return order, children


# -- separator ----------------------------------------------------------------


class Stamps:
    """Node sets of one host, marked by stamping: the nodes of a set carry
    its stamp, a fresh integer, so marking a set costs only its own size and
    nothing is cleared between sets.  Each routine stamps the sets it tests
    when it starts, which invalidates the sets of the routines it calls into.
    ``depth`` holds per-node BFS depths, valid for the nodes just searched.
    Stamps only grow, so one instance serves every ``decompose_cut`` on its
    host: a caller that cuts the host's components one by one builds it
    once."""

    __slots__ = ("mark", "depth", "last")

    def __init__(self, n: int) -> None:
        self.mark = [0] * n
        self.depth = [0] * n
        self.last = 0

    def fresh(self) -> int:
        self.last += 1
        return self.last

    def stamp(self, nodes) -> int:
        s = self.fresh()
        mark = self.mark
        for v in nodes:
            mark[v] = s
        return s


def components_in(host: EmbeddedGraph, nodes, st: Stamps, removed=()):
    """Components of the subgraph of host induced on the sorted ``nodes``
    minus ``removed``, as sorted lists ordered by smallest node.  Costs the
    nodes' darts; ``st`` is the host's."""
    mark = st.mark
    inside = st.stamp(nodes)
    st.stamp(removed)
    node_of, nxt, first = host.node_of, host.nxt, host.first
    out = []
    for s in nodes:
        if mark[s] != inside:
            continue
        seen = st.fresh()
        mark[s] = seen
        comp = [s]
        for u in comp:
            d0 = first[u]
            if d0 < 0:
                continue
            d = d0
            while True:
                w = node_of[d ^ 1]
                if mark[w] == inside:
                    mark[w] = seen
                    comp.append(w)
                d = nxt[d]
                if d == d0:
                    break
        comp.sort()
        out.append(comp)
    return out


def _separate_connected(host, nodes, st, limit):
    """Separator S of the connected subgraph induced on the sorted
    ``nodes``, and the components of nodes minus S.  A tree is cut into
    components of at most ``limit`` nodes in one bottom-up pass; any other
    piece by levels and, if needed, a cycle, into components of at most
    2/3 of its nodes."""
    n = len(nodes)
    # BFS levels from the smallest node.  up[i] is the order index of
    # order[i]'s BFS parent, and back counts the darts into nodes already
    # reached: n - 1 of them (each tree edge's twin) exactly on a tree
    mark, depth = st.mark, st.depth
    inside = st.stamp(nodes)
    reached = st.fresh()
    node_of, nxt, first = host.node_of, host.nxt, host.first
    root = nodes[0]
    mark[root] = reached
    depth[root] = 0
    order = [root]
    up = [-1]
    back = 0
    for i, u in enumerate(order):
        d0 = first[u]
        if d0 < 0:
            continue
        du = depth[u] + 1
        d = d0
        while True:
            w = node_of[d ^ 1]
            if mark[w] == inside:
                mark[w] = reached
                depth[w] = du
                order.append(w)
                up.append(i)
            elif mark[w] == reached:
                back += 1
            d = nxt[d]
            if d == d0:
                break
    if back == n - 1:
        return _cut_tree(order, up, limit)
    h = depth[order[-1]]
    levels: list[list[int]] = [[] for _ in range(h + 2)]  # levels[h+1] = []
    for v in nodes:
        levels[depth[v]].append(v)
    csize = [len(lv) for lv in levels]
    cum = [0] * (h + 2)
    acc = 0
    for l in range(h + 2):
        acc += csize[l]
        cum[l] = acc
    half = (n + 1) // 2
    t = next(l for l in range(h + 1) if cum[l] >= half)

    # best l1 <= t and best l2 > t minimize c[l1]+c[l2]+2(l2-l1-1)+1, which
    # separates into (c[l]-2l) and (c[l]+2l) terms
    l1 = min(range(t + 1), key=lambda l: (csize[l] - 2 * l, l))
    l2 = min(range(t + 1, h + 2), key=lambda l: (csize[l] + 2 * l, l))
    S = set(levels[l1])
    S.update(levels[l2])

    comps = components_in(host, nodes, st, S)
    if comps and max(len(c) for c in comps) > SIDE_FRACTION * n:
        # cycle phase: the heavy component sits strictly between the cut
        # levels; contract levels <= l1 into a supernode, drop levels >= l2,
        # and split the middle belt along a balanced fundamental cycle
        inner = [v for v in nodes if depth[v] <= l1]
        middle = [v for v in nodes if l1 < depth[v] < l2]
        H = _contract_inner(host, inner, middle, st)
        S.update(middle[i - 1] for i in _balanced_cycle(H) if i)
        comps = components_in(host, nodes, st, S)
        if comps and max(len(c) for c in comps) > SIDE_FRACTION * n:
            raise ChecksFailed("cycle phase left an oversized component")
    return S, comps


def _cut_tree(order: list[int], up: list[int], limit: int):
    """Cut a tree, given by its BFS ``order`` and parent indices ``up``,
    into components of at most ``limit`` nodes in one bottom-up pass (after
    Kundu & Misra): each node adds the uncut part of its subtree to its
    parent's, and a node whose uncut subtree is over ``limit`` is cut and
    adds nothing.  Every cut node takes more than ``limit`` uncut nodes
    with it, its own and disjoint from the others', so at most
    n // (limit + 1) nodes are cut.  Returns (cut, components), the
    components as sorted lists ordered by smallest node."""
    n = len(order)
    size = [1] * n  # per order index, its uncut subtree; 0 once cut
    for i in range(n - 1, 0, -1):
        s = size[i]
        if s > limit:
            size[i] = 0
        else:
            size[up[i]] += s
    if size[0] > limit:
        size[0] = 0
    cut = set()
    comp_of: list = [None] * n  # per order index, its component
    out = []
    for i, p in enumerate(up):
        if not size[i]:
            cut.add(order[i])
        elif p < 0 or not size[p]:  # the root, or a child of a cut node
            comp = comp_of[i] = [order[i]]
            out.append(comp)
        else:
            comp = comp_of[i] = comp_of[p]
            comp.append(order[i])
    for comp in out:
        comp.sort()
    out.sort()
    return cut, out


def _contract_inner(host, inner: list[int], middle: list[int], st: Stamps):
    """Embedded graph on the middle belt plus a supernode for the contracted
    inner set, both sorted host node lists of one connected piece of two or
    more nodes, so every node has a dart.

    H node 0 is the supernode and H node i (i >= 1) is middle[i-1]. A middle
    node's rotation is its host rotation restricted to inner + middle, read
    from its ``first`` dart.  Contracting a spanning tree of the inner set
    leaves the supernode's darts in the order of one walk around that tree,
    a BFS tree from inner[0] in rotation order: from the root's ``first``
    dart, the walk crosses a tree edge and goes on after its twin, and
    passes any other dart.  The walk keeps the first dart to each middle
    node; loops, and later darts to a node already met together with their
    twins, are dropped, which only merges faces and keeps genus 0.
    """
    mark = st.mark
    in_mid = st.stamp(middle)
    in_inner = st.stamp(inner)
    node_of, nxt, first = host.node_of, host.nxt, host.first

    # BFS tree of the inner set, whose nodes are stamped again as reached
    x = inner[0]
    reached = st.fresh()
    mark[x] = reached
    tree: set[int] = set()  # its edges
    iorder = [x]
    for u in iorder:
        d = d0 = first[u]
        while True:
            w = node_of[d ^ 1]
            if mark[w] == in_inner:
                mark[w] = reached
                tree.add(d >> 1)
                iorder.append(w)
            d = nxt[d]
            if d == d0:
                break
    if len(iorder) != len(inner):
        raise ChecksFailed("inner level set not connected")

    # supernode row, one walk around the tree; back[w] is the twin of the
    # dart kept to middle node w, its one dart into the inner set
    label = {w: i for i, w in enumerate(middle, 1)}
    row0: list[int] = []
    back: dict[int, int] = {}
    d = d0 = first[x]
    while True:
        w = node_of[d ^ 1]
        if d >> 1 in tree:
            d ^= 1
        elif mark[w] == in_mid and w not in back:
            back[w] = d ^ 1
            row0.append(label[w])
        d = nxt[d]
        if d == d0:
            break
    rows = [row0]
    for v in middle:
        row = []
        b = back.get(v)
        d = d0 = first[v]
        while True:
            w = node_of[d ^ 1]
            if mark[w] == in_mid:
                row.append(label[w])
            elif d == b:
                row.append(0)
            d = nxt[d]
            if d == d0:
                break
        rows.append(row)
    return EmbeddedGraph.from_rotations(rows)


def _balanced_cycle(H: EmbeddedGraph) -> set[int]:
    """Nodes of the best fundamental cycle of H, node 0 being the supernode.

    H is triangulated in place, and the cycle is measured in the result;
    weights live on middle nodes only; the supernode contributes no weight
    and the dual tree is rooted at one of its faces so it is never strictly
    inside.  The dual tree is walked on the triangles: each triangle is
    entered through one non-tree edge, and the triangles below that edge
    are the faces inside its cycle.

    The top of a cycle, the lowest common ancestor of the edge's ends, is
    the shallowest node of the triangles inside it: every node on the cycle
    descends from the top, and the tree path from a node strictly inside to
    node 0, which is not strictly inside, leaves through a shallower node of
    the cycle.  A triangle's nodes are the ends of the edge it was entered
    by and its third node, so the top is the shallower end or the shallowest
    third node below the edge, a minimum folded up the dual tree with the
    triangle counts.
    """
    _triangulate_into(H)
    nh = H.n
    horder, hpar, depth = bfs_tree(H, 0)
    if len(horder) != nh:
        raise ChecksFailed("contracted middle graph not connected")
    nontree = H.num_edges - (nh - 1)
    if nontree == 0:
        raise ChecksFailed("triangulated middle has no non-tree edge")
    node_of, nxt = H.node_of, H.nxt

    # interdigitating dual tree: triangles linked through non-tree edges,
    # each triangle named by the dart it was entered by; phi(d) = nxt[d ^ 1]
    # is d's successor on its face walk.  A triangle leads on through the
    # twins of its two other darts, each read once, so a dart is taken when
    # its edge is in the tree or its triangle is reached through another
    # dart.  The root's entry dart leaves node 0 on the first tree edge
    # that BFS follows.
    free = bytearray(b"\x01") * H.num_darts
    for d in hpar:
        if d >= 0:
            free[d] = free[d ^ 1] = 0
    dep = list(map(depth.__getitem__, node_of))  # per dart, its node's depth
    root = H.first[0]
    d1 = nxt[root ^ 1]
    free[d1] = free[nxt[d1 ^ 1]] = 0
    tri = [root]
    tri_parent = [-1]
    # per triangle, the depth of the node opposite its entry edge; folded
    # below into the shallowest such node of its subtree
    third = [0]
    for i, d in enumerate(tri):
        d1 = nxt[d ^ 1]
        for x in (d1, nxt[d1 ^ 1]):
            y = x ^ 1
            if free[y]:
                y1 = nxt[x]
                y2 = nxt[y1 ^ 1]
                free[y1] = free[y2] = 0
                tri.append(y)
                tri_parent.append(i)
                third.append(dep[y2])
    if 3 * len(tri) != H.num_darts or nontree != len(tri) - 1:
        raise ChecksFailed("dual spanning structure incomplete")

    # bottom-up: a non-tree edge hangs the subtree of the triangle it
    # enters; cost is the heavier side, ties to the smaller edge
    total_w = nh - 1
    sub_size = [1] * len(tri)
    best_cost, best_e, best_top = nh, -1, -1  # every cost is below nh
    for i in range(len(tri) - 1, 0, -1):
        p = tri_parent[i]
        s = sub_size[i]
        sub_size[p] += s
        top = third[i]
        if top < third[p]:
            third[p] = top
        y = tri[i]
        du, dv = dep[y], dep[y ^ 1]
        if du < top:
            top = du
        if dv < top:
            top = dv
        length = du + dv - 2 * top + 1
        if (s - length) & 1:
            raise ChecksFailed("face/cycle parity broken in cycle search")
        w_in = 1 + (s - length) // 2  # disk Euler count of strictly-inside nodes
        w_out = total_w - w_in - length + (top == 0)  # the supernode weighs 0
        cost = w_in if w_in > w_out else w_out
        if cost < best_cost or (cost == best_cost and y >> 1 < best_e):
            best_cost, best_e, best_top = cost, y >> 1, top
    if best_cost > SIDE_FRACTION * total_w:
        raise ChecksFailed("no fundamental cycle balances the middle")

    cyc = set()
    for w in (node_of[2 * best_e], node_of[2 * best_e + 1]):
        while depth[w] > best_top:
            cyc.add(w)
            w = node_of[hpar[w] ^ 1]
        cyc.add(w)
    return cyc


# -- decompositions -------------------------------------------------------------


def decompose_cut(
    host: EmbeddedGraph, nodes: Iterable[int], limit: int, st: Stamps | None = None
) -> tuple[set[int], list[list[int]]]:
    """Nodes whose removal from the subgraph of host induced on the distinct
    ``nodes`` leaves components of at most ``limit`` nodes: the separators
    of a partial decomposition, cut only where a component is over
    ``limit``.  Returns (cut, components): the components are those that
    the cut leaves, as sorted node lists ordered by smallest node, the
    order ``EmbeddedGraph.components`` gives them in.

    A worklist of components: one of at most ``limit`` nodes is kept as it
    is, and a larger one is separated whole, its components going back on
    the list.  Each component is separated on its own, so the result does
    not depend on the order they are taken in.  A tree component is cut in
    one bottom-up pass into components of at most ``limit`` nodes, with at
    most n // (limit + 1) cut nodes; any other by levels and, if needed, a
    cycle.  Components are sorted lists of host nodes and every separator
    step reads the host's rotations, skipping darts that leave the
    component; no subgraph is built, and the cut equals the one the same
    worklist gives on induced copies.  ``st`` is the host's ``Stamps``,
    built here when not given; with it, the call costs the nodes' darts
    and not the host's size."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if st is None:
        st = Stamps(host.n)
    out: set[int] = set()
    leaves: list[list[int]] = []
    work = components_in(host, sorted(nodes), st)
    while work:
        comp = work.pop()
        if len(comp) <= limit:
            leaves.append(comp)
            continue
        s, comps = _separate_connected(host, comp, st, limit)
        if not s:  # every valid cut of a component over the limit is nonempty
            raise ChecksFailed("separation of an oversized component cut nothing")
        out |= s
        work += comps
    leaves.sort()
    return out, leaves


# -- planarizer -------------------------------------------------------------------


def planarize(g: EmbeddedGraph) -> set[int]:
    """Nodes whose deletion removes every handle: per positive-genus
    component, the fundamental cycles (w.r.t. a BFS tree) of the 2*genus
    edges left over after matching faces through non-tree edges.  Genus and
    component count come from one ``euler``; a genus-0 graph has none."""
    genus, ncomp = g.euler()
    if genus == 0:
        return set()
    if ncomp == 1:
        return _planarize_connected(g, list(range(g.n)), genus)
    out: set[int] = set()
    for nodes in g.components():
        sub, ids = g.induced(nodes)
        out |= _planarize_connected(sub, ids, sub.genus())
    return out


def _planarize_connected(g: EmbeddedGraph, ids: list[int], genus: int) -> set[int]:
    if genus == 0:
        return set()
    _, parent_dart, depth = bfs_tree(g, 0)
    tree_edge = _tree_edges(g, parent_dart)
    face_of, nfaces = g.face_of_darts()
    _, children = _face_tree(g, tree_edge, face_of, nfaces, face_of[0])
    used = {e for kids in children for _, e in kids}
    leftover = [e for e in range(g.num_edges) if not tree_edge[e] and e not in used]
    if len(leftover) != 2 * genus:
        raise ChecksFailed("leftover edge count does not match genus")
    out: set[int] = set()
    for e in leftover:
        u, v = g.node_of[2 * e], g.node_of[2 * e + 1]
        while u != v:
            if depth[u] < depth[v]:
                u, v = v, u
            out.add(ids[u])
            u = g.node_of[parent_dart[u] ^ 1]
        out.add(ids[u])
    return out
