"""Reference separator recursion on induced copies.

This is the recursion that ``plancode.planar_sep.decompose_cut`` and
``sep_split.planar_separator`` would run without their one host: every
piece, and every cycle phase, is an induced subgraph copy with its own
labels.  The library must return the same cuts.  In ``planar_separator``
a tree piece is cut at its centroid, found here by removing each node in
turn from the copy and measuring the largest component left; in
``decompose_cut`` it is cut bottom up, in a postorder over its edge list
(``cut_tree_bottom_up``).  The search for the balanced cycle in the
contraction H (``balanced_cycle``) is the one the library ran before it
triangulated H in place: it triangulates a copy with the oracle
``triangulate``, numbers every face and walks the dual tree over face ids.
"""

from __future__ import annotations

import numpy as np

from oracles import triangulate
from plancode.constants import SIDE_FRACTION
from plancode.embgraph import EmbeddedGraph
from plancode.errors import ChecksFailed
from plancode.planar_sep import bfs_tree


def planar_separator(g: EmbeddedGraph) -> tuple[set[int], set[int], set[int]]:
    if g.n == 0:
        return set(), set(), set()
    comps = g.components()
    if len(comps) > 1:
        return _separate_disconnected(g, comps)
    return _separate_connected(g)


def _pack_chunks(chunks: list[list[int]]) -> tuple[set[int], set[int]]:
    sides: tuple[set[int], set[int]] = (set(), set())
    for c in sorted((c for c in chunks if c), key=lambda c: (-len(c), min(c))):
        tgt = sides[0] if len(sides[0]) <= len(sides[1]) else sides[1]
        tgt.update(c)
    return sides


def _separate_disconnected(g: EmbeddedGraph, comps: list[list[int]]):
    n = g.n
    big = max(comps, key=len)
    if len(big) <= SIDE_FRACTION * n:
        s1, s2 = _pack_chunks(comps)
        return set(), s1, s2
    sub, ids = g.induced(big)
    s = {ids[v] for v in _separate_connected(sub)[0]}
    s1, s2 = _pack_chunks(g.components(s))
    return s, s1, s2


def _separate_connected(g: EmbeddedGraph):
    n = g.n
    if g.num_edges == n - 1:
        # a tree: the node whose removal leaves the smallest largest
        # component, ties to the smallest node
        c = min(range(n), key=lambda v: (max(map(len, g.components({v})), default=0), v))
        s1, s2 = _pack_chunks(g.components({c}))
        return {c}, s1, s2
    _, _, depth = bfs_tree(g, 0)
    h = max(depth)
    csize = [0] * (h + 2)
    for v in range(n):
        csize[depth[v]] += 1
    cum = [0] * (h + 2)
    acc = 0
    for l in range(h + 2):
        acc += csize[l]
        cum[l] = acc
    half = (n + 1) // 2
    t = next(l for l in range(h + 1) if cum[l] >= half)
    l1 = min(range(t + 1), key=lambda l: (csize[l] - 2 * l, l))
    l2 = min(range(t + 1, h + 2), key=lambda l: (csize[l] + 2 * l, l))

    levels: list[list[int]] = [[] for _ in range(h + 2)]
    for v in range(n):
        levels[depth[v]].append(v)
    S = set(levels[l1]) | (set(levels[l2]) if l2 <= h else set())

    comps = g.components(S)
    if comps and max(len(c) for c in comps) > SIDE_FRACTION * n:
        inner = {v for l in range(l1 + 1) for v in levels[l]}
        middle = {v for l in range(l1 + 1, l2) for v in levels[l]}
        H, hids = contract_inner(g, inner, middle)
        S |= {hids[i] for i in balanced_cycle(H) if i != 0}
        comps = g.components(S)
        if comps and max(len(c) for c in comps) > SIDE_FRACTION * n:
            raise ChecksFailed("cycle phase left an oversized component")
    s1, s2 = _pack_chunks(comps)
    return S, s1, s2


def contract_inner(g: EmbeddedGraph, inner: set[int], middle: set[int]):
    """(H, ids): H node 0 is the contracted inner set, H node i >= 1 is g
    node ids[i].  Splices in place on an induced copy of inner + middle."""
    sub, ids = g.induced(inner | middle)
    local_inner = [i for i, v in enumerate(ids) if v in inner]
    is_inner = [v in inner for v in ids]
    x = local_inner[0]
    iorder = [x]
    ipar = {x: -1}
    qi = 0
    while qi < len(iorder):
        u = iorder[qi]
        qi += 1
        for d in sub.darts_at(u):
            w = sub.head(d)
            if is_inner[w] and w not in ipar:
                ipar[w] = d ^ 1
                iorder.append(w)
    if len(iorder) != len(local_inner):
        raise ChecksFailed("inner level set not connected")

    node_of, nxt, first = sub.node_of, sub.nxt, sub.first
    prv = [0] * len(nxt)  # each dart's predecessor, for the deletions below
    for d, e in enumerate(nxt):
        prv[e] = d
    for v in iorder[1:]:
        dv = ipar[v]
        dx = dv ^ 1
        others = sub.rotation_from(dv)[1:]
        px, nx_ = prv[dx], nxt[dx]
        if px == dx:
            if others:
                first[x] = others[0]
                prv[others[0]] = others[-1]
                nxt[others[-1]] = others[0]
            else:
                first[x] = -1
        else:
            if others:
                nxt[px] = others[0]
                prv[others[0]] = px
                nxt[others[-1]] = nx_
                prv[nx_] = others[-1]
            else:
                nxt[px] = nx_
                prv[nx_] = px
            if first[x] == dx:  # the walk around the tree enters v's darts
                first[x] = others[0] if others else nx_
        for d in others:
            node_of[d] = x
        node_of[dv] = -2
        node_of[dx] = -2

    rot_x = []
    d0 = first[x]
    if d0 >= 0:
        d = d0
        while True:
            rot_x.append(d)
            d = nxt[d]
            if d == d0:
                break
    keep = []
    seen_heads: set[int] = set()
    dropped: list[int] = []
    for d in rot_x:
        hd = node_of[d ^ 1]
        if hd == x or hd in seen_heads:
            dropped.append(d)
        else:
            seen_heads.add(hd)
            keep.append(d)
    for d in dropped:
        if node_of[d ^ 1] == x:
            continue
        t = d ^ 1
        w = node_of[t]
        if nxt[t] == t:
            first[w] = -1
        else:
            nxt[prv[t]] = nxt[t]
            prv[nxt[t]] = prv[t]
            if first[w] == t:
                first[w] = nxt[t]
        node_of[t] = -2
        node_of[d] = -2

    mids = [i for i, v in enumerate(ids) if v in middle]
    local2new = {x: 0}
    for j, i in enumerate(mids):
        local2new[i] = j + 1
    rots: list[list[int]] = [[local2new[node_of[d ^ 1]] for d in keep]]
    for i in mids:
        row = []
        d0 = first[i]
        if d0 >= 0:
            d = d0
            while True:
                if node_of[d] != -2:
                    row.append(local2new[node_of[d ^ 1]])
                d = nxt[d]
                if d == d0:
                    break
        rots.append(row)
    return EmbeddedGraph.from_rotations(rots), [None] + [ids[i] for i in mids]


def balanced_cycle(H: EmbeddedGraph) -> set[int]:
    """Nodes of the best fundamental cycle of H, node 0 being the
    supernode, measured in a triangulated copy of H."""
    Ht = triangulate(H)
    nh = Ht.n
    horder, hpar, hdepth = bfs_tree(Ht, 0)
    if len(horder) != nh:
        raise ChecksFailed("contracted middle graph not connected")
    tree_edge = bytearray(Ht.num_edges)
    for d in hpar:
        if d >= 0:
            tree_edge[d >> 1] = 1
    face_of, nfaces = _face_of_darts(Ht)
    dual_order, dual_children = _face_tree(
        Ht, tree_edge, face_of, nfaces, face_of[Ht.first[0]]
    )

    sub_size = [1] * nfaces
    child_face_of_edge: dict[int, int] = {}
    for f in reversed(dual_order):
        for f2, e in dual_children[f]:
            sub_size[f] += sub_size[f2]
            child_face_of_edge[e] = f2

    nontree = [e for e in range(Ht.num_edges) if not tree_edge[e]]
    if not nontree:
        raise ChecksFailed("triangulated middle has no non-tree edge")
    us = np.array([Ht.node_of[2 * e] for e in nontree])
    vs = np.array([Ht.node_of[2 * e + 1] for e in nontree])
    lca = _batch_lca(hpar, hdepth, us, vs, Ht)
    dep = np.array(hdepth)
    lens = dep[us] + dep[vs] - 2 * dep[lca] + 1

    f_in = np.array([sub_size[child_face_of_edge[e]] for e in nontree])
    if ((f_in - lens) % 2).any():
        raise ChecksFailed("face/cycle parity broken in cycle search")
    v_in = 1 + (f_in - lens) // 2
    on_cycle_x = (us == 0) | (vs == 0) | (lca == 0)
    w_on = lens - on_cycle_x
    total_w = nh - 1
    w_in = v_in
    w_out = total_w - w_in - w_on
    cost = np.maximum(w_in, w_out)
    best = int(np.argmin(cost))
    if cost[best] > SIDE_FRACTION * total_w:
        raise ChecksFailed("no fundamental cycle balances the middle")

    u, v, a = int(us[best]), int(vs[best]), int(lca[best])
    cyc = {a}
    for w in (u, v):
        while w != a:
            cyc.add(w)
            w = Ht.node_of[hpar[w] ^ 1]
    return cyc


def _face_of_darts(g: EmbeddedGraph) -> tuple[list[int], int]:
    face_of = [-1] * g.num_darts
    count = 0
    for d0 in range(g.num_darts):
        if face_of[d0] >= 0:
            continue
        d = d0
        while face_of[d] < 0:
            face_of[d] = count
            d = g.nxt[d ^ 1]
        count += 1
    return face_of, count


def _face_tree(g, tree_edge, face_of, nfaces, root):
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


def _batch_lca(parent_dart, depth, us, vs, g: EmbeddedGraph):
    n = len(parent_dart)
    par = np.array(
        [g.node_of[d ^ 1] if d >= 0 else i for i, d in enumerate(parent_dart)]
    )
    dep = np.array(depth)
    logs = max(1, int(dep.max()).bit_length())
    anc = np.empty((logs, n), dtype=np.int64)
    anc[0] = par
    for k in range(1, logs):
        anc[k] = anc[k - 1][anc[k - 1]]
    u = us.copy()
    v = vs.copy()
    for k in range(logs - 1, -1, -1):
        step = 1 << k
        mask = dep[u] - dep[v] >= step
        u[mask] = anc[k][u[mask]]
        mask = dep[v] - dep[u] >= step
        v[mask] = anc[k][v[mask]]
    eq = u == v
    for k in range(logs - 1, -1, -1):
        differs = ~eq & (anc[k][u] != anc[k][v])
        u[differs] = anc[k][u[differs]]
        v[differs] = anc[k][v[differs]]
    return np.where(eq, u, par[u])


def decompose_cut(g: EmbeddedGraph, limit: int) -> set[int]:
    """A worklist of induced copies: a component of at most ``limit``
    nodes is left as it is, and a larger one is separated, a tree by
    ``cut_tree_bottom_up`` and any other piece by ``_separate_connected``,
    and its components over ``limit`` are taken again."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    out: set[int] = set()
    stack = [g.induced(c) for c in g.components() if len(c) > limit]
    while stack:
        h, ids = stack.pop()
        if h.num_edges == h.n - 1:
            s = cut_tree_bottom_up(h, limit)
        else:
            s = _separate_connected(h)[0]
        out.update(ids[v] for v in s)
        for c in h.components(s):
            if len(c) > limit:
                sub, sids = h.induced(c)
                stack.append((sub, [ids[v] for v in sids]))
    return out


def cut_tree_bottom_up(g: EmbeddedGraph, limit: int) -> set[int]:
    """Nodes cut from the tree g, rooted at node 0, so that every component
    left has at most ``limit`` nodes: in a depth-first postorder over g's
    edge list, a node whose subtree, less the subtrees hanging below cut
    nodes, is over ``limit`` is cut."""
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges():
        adj[u].append(v)
        adj[v].append(u)
    parent = [-1] * g.n
    postorder = []
    stack = [(0, iter(adj[0]))]
    while stack:
        v, it = stack[-1]
        w = next(it, None)
        if w is None:
            stack.pop()
            postorder.append(v)
        elif w != parent[v]:
            parent[w] = v
            stack.append((w, iter(adj[w])))
    weight = [1] * g.n
    cut = set()
    for v in postorder:
        if weight[v] > limit:
            cut.add(v)
        elif parent[v] >= 0:
            weight[parent[v]] += weight[v]
    return cut
