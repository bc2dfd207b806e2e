"""Planar separators, partial separator decompositions, and the planarizer.

``planar_separator`` returns (S, S1, S2): deleting S leaves S1 and S2 with no
edges between them, each at most 2n/3 nodes, with |S| <= 4*sqrt(n) on planar
inputs. The construction is the classical one: BFS levels from the smallest
node, an optimal pair of cut levels around the median, and — when the middle
belt is still too heavy — a fundamental-cycle separator of the middle with
the inner levels contracted to a single zero-weight supernode.

``decompose_cut`` separates recursively for the fragmenter: it stops at
pieces of a given size and returns only the union of the cut separators.

``planarize`` removes handles: for each positive-genus component it picks a
BFS tree, matches faces through the edges not in the tree (the dual spanning
structure), and returns the nodes of the fundamental cycles of the 2*genus
leftover edges. Deleting them leaves a genus-0 graph.
"""

from __future__ import annotations

import numpy as np

from .constants import SIDE_FRACTION
from .embgraph import EmbeddedGraph, triangulate
from .errors import ChecksFailed

__all__ = [
    "bfs_tree",
    "planar_separator",
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


def planar_separator(g: EmbeddedGraph) -> tuple[set[int], set[int], set[int]]:
    """Separate a planar embedded graph; see module docstring for the
    guarantees. Disconnected inputs are packed component-wise (S may be
    empty then)."""
    n = g.n
    if n == 0:
        return set(), set(), set()
    if n == 1:
        # a side of size 1 would already exceed 2n/3
        return {0}, set(), set()
    comps = g.components()
    if len(comps) > 1:
        return _separate_disconnected(g, comps)
    return _separate_connected(g)


def _pack_chunks(chunks: list[list[int]], total: int) -> tuple[set[int], set[int]]:
    """Distribute pairwise non-adjacent chunks (each <= 2/3 total) into two
    sides, largest first into the lighter side; both end <= 2/3 total."""
    sides: tuple[set[int], set[int]] = (set(), set())
    for c in sorted((c for c in chunks if c), key=lambda c: (-len(c), min(c))):
        tgt = sides[0] if len(sides[0]) <= len(sides[1]) else sides[1]
        tgt.update(c)
    return sides


def _separate_disconnected(g: EmbeddedGraph, comps: list[list[int]]):
    n = g.n
    big = max(comps, key=len)
    if len(big) <= SIDE_FRACTION * n:
        s1, s2 = _pack_chunks(comps, n)
        return set(), s1, s2
    sub, ids = g.induced(big)
    s = {ids[v] for v in _separate_connected(sub)[0]}
    s1, s2 = _pack_chunks(g.components(s), n)
    return s, s1, s2


def _separate_connected(g: EmbeddedGraph):
    n = g.n
    if n == 2:
        if g.num_edges:
            return {0}, {1}, set()
        return set(), {0}, {1}
    _, _, depth = bfs_tree(g, 0)
    h = max(depth)
    csize = [0] * (h + 2)  # c[h+1] = 0 sentinel (cutting above the top)
    for v in range(n):
        csize[depth[v]] += 1
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

    levels: list[list[int]] = [[] for _ in range(h + 2)]
    for v in range(n):
        levels[depth[v]].append(v)
    S = set(levels[l1]) | (set(levels[l2]) if l2 <= h else set())

    comps = g.components(S)
    if comps and max(len(c) for c in comps) > SIDE_FRACTION * n:
        # cycle phase: the heavy component sits strictly between the cut
        # levels; contract levels <= l1 into a supernode, drop levels >= l2,
        # and split the middle belt along a balanced fundamental cycle
        inner = {v for l in range(l1 + 1) for v in levels[l]}
        middle = {v for l in range(l1 + 1, l2) for v in levels[l]}
        cyc_nodes, _, _ = _cycle_separator(g, inner, middle)
        S |= cyc_nodes
        comps = g.components(S)
        if comps and max(len(c) for c in comps) > SIDE_FRACTION * n:
            raise ChecksFailed("cycle phase left an oversized component")
    s1, s2 = _pack_chunks(comps, n)
    return S, s1, s2


def _contract_inner(g: EmbeddedGraph, inner: set[int], middle: set[int]):
    """Embedded graph on middle + supernode for the contracted inner set.

    Returns (H, ids) where H node 0 is the supernode and ids[i] (i >= 1) is
    the g-node of H node i. Contraction follows a BFS tree of the inner set
    so every merge is with the supernode directly; parallel edges and loops
    created by the contraction are removed (keeping each neighbor's first
    dart in rotation order), which only merges faces and keeps genus 0.
    """
    sub, ids = g.induced(inner | middle)
    local_inner = [i for i, v in enumerate(ids) if v in inner]
    is_inner = [v in inner for v in ids]
    x = local_inner[0]
    # BFS tree within the inner part
    iorder = [x]
    ipar = {x: -1}
    qi = 0
    while qi < len(iorder):
        u = iorder[qi]
        qi += 1
        for d in sub.darts_at(u):
            w = sub.head(d)
            if is_inner[w] and w not in ipar:
                ipar[w] = d ^ 1  # dart from w to u
                iorder.append(w)
    if len(iorder) != len(local_inner):
        raise ChecksFailed("inner level set not connected")

    node_of, nxt, prv, first = sub.node_of, sub.nxt, sub.prv, sub.first
    for v in iorder[1:]:
        dv = ipar[v]
        dx = dv ^ 1  # at (what is now) x
        rot_v = sub.rotation_from(dv)
        others = rot_v[1:]
        px, nx_ = prv[dx], nxt[dx]
        if px == dx:  # x currently has only this dart
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
            if first[x] == dx:
                first[x] = nx_
        for d in others:
            node_of[d] = x
        node_of[dv] = -2
        node_of[dx] = -2

    # drop self-loops and parallel edges at x
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
    loop_darts = {d for d in dropped if node_of[d ^ 1] == x}
    for d in dropped:
        if node_of[d ^ 1] == x:
            continue  # both ends at x handled by exclusion from keep
        # unlink twin from its (middle) node's rotation
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
    for d in loop_darts:
        node_of[d] = -2

    # assemble clean rotations: supernode first, then middle nodes
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
    H = EmbeddedGraph.from_rotations(rots)
    return H, [None] + [ids[i] for i in mids]


def _cycle_separator(g, inner, middle):
    """Best fundamental-cycle separator of the middle belt.

    Returns (cycle nodes as g-ids, middle-inside, middle-outside). The cycle
    is measured in the triangulated contraction H; weights live on middle
    nodes only; the supernode (node 0 of H) contributes no weight and the
    dual tree is rooted at one of its faces so it is never strictly inside.
    """
    H, hids = _contract_inner(g, inner, middle)
    Ht = triangulate(H)
    nh = Ht.n
    horder, hpar, hdepth = bfs_tree(Ht, 0)
    if len(horder) != nh:
        raise ChecksFailed("contracted middle graph not connected")
    tree_edge = _tree_edges(Ht, hpar)
    face_of, nfaces = Ht.face_of_darts()
    # interdigitating dual tree: faces linked through non-tree edges
    dual_order, dual_children = _face_tree(
        Ht, tree_edge, face_of, nfaces, face_of[Ht.first[0]]
    )

    # subtree sizes; nontree edge e hangs the subtree at its child face
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
    v_in = 1 + (f_in - lens) // 2  # disk Euler count of strictly-inside nodes
    on_cycle_x = (us == 0) | (vs == 0) | (lca == 0)
    w_on = lens - on_cycle_x  # middle nodes on the cycle
    total_w = nh - 1
    w_in = v_in
    w_out = total_w - w_in - w_on
    cost = np.maximum(w_in, w_out)
    best = int(np.argmin(cost))
    if cost[best] > SIDE_FRACTION * total_w:
        raise ChecksFailed("no fundamental cycle balances the middle")

    e = nontree[best]
    u, v, a = int(us[best]), int(vs[best]), int(lca[best])
    cyc = set()
    for w in (u, v):
        while w != a:
            cyc.add(w)
            w = Ht.node_of[hpar[w] ^ 1]
    cyc.add(a)

    # inside/outside split of the remaining middle nodes
    inside_faces = bytearray(nfaces)
    stk = [child_face_of_edge[e]]
    inside_faces[child_face_of_edge[e]] = 1
    while stk:
        f = stk.pop()
        for f2, _ in dual_children[f]:
            if not inside_faces[f2]:
                inside_faces[f2] = 1
                stk.append(f2)

    color = [-1] * nh  # 0 outside, 1 inside for non-cycle nodes
    for s in range(nh):
        if s in cyc or color[s] >= 0:
            continue
        comp = [s]
        color[s] = 2
        qi = 0
        while qi < len(comp):
            uu = comp[qi]
            qi += 1
            for d in Ht.darts_at(uu):
                ww = Ht.head(d)
                if ww not in cyc and color[ww] < 0:
                    color[ww] = 2
                    comp.append(ww)
        inside = int(inside_faces[face_of[Ht.first[comp[0]]]])
        for uu in comp:
            color[uu] = inside

    m_in = {hids[i] for i in range(1, nh) if color[i] == 1}
    m_out = {hids[i] for i in range(1, nh) if color[i] == 0}
    cyc_g = {hids[i] for i in cyc if i != 0}
    return cyc_g, m_in, m_out


def _batch_lca(parent_dart, depth, us, vs, g: EmbeddedGraph):
    """Vectorized lowest common ancestors by binary lifting."""
    n = len(parent_dart)
    par = np.array(
        [g.node_of[d ^ 1] if d >= 0 else i for i, d in enumerate(parent_dart)]
    )
    dep = np.array(depth)
    maxd = int(dep.max())
    logs = max(1, maxd.bit_length())
    anc = np.empty((logs, n), dtype=np.int64)
    anc[0] = par
    for k in range(1, logs):
        anc[k] = anc[k - 1][anc[k - 1]]
    u = us.copy()
    v = vs.copy()
    # lift deeper endpoint
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
    res = np.where(eq, u, par[u])
    return res


# -- decompositions -------------------------------------------------------------


def decompose_cut(g: EmbeddedGraph, limit: int) -> set[int]:
    """Nodes whose removal leaves components of at most ``limit`` nodes:
    the separators of a partial decomposition, cut once pieces fit."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    out: set[int] = set()
    stack: list[tuple[EmbeddedGraph, list[int]]] = [(g, list(range(g.n)))]
    while stack:
        h, ids = stack.pop()
        if h.n <= limit:
            continue
        s, s1, s2 = planar_separator(h)
        out.update(ids[v] for v in s)
        for side in (s1, s2):
            if len(side) > limit:
                sub, sids = h.induced(side)
                stack.append((sub, [ids[v] for v in sids]))
    return out


# -- planarizer -------------------------------------------------------------------


def planarize(g: EmbeddedGraph) -> set[int]:
    """Nodes whose deletion removes every handle: per positive-genus
    component, the fundamental cycles (w.r.t. a BFS tree) of the 2*genus
    edges left over after matching faces through non-tree edges."""
    comps = g.components()
    if len(comps) == 1:
        return _planarize_connected(g, list(range(g.n)))
    out: set[int] = set()
    for nodes in comps:
        sub, ids = g.induced(nodes)
        out |= _planarize_connected(sub, ids)
    return out


def _planarize_connected(g: EmbeddedGraph, ids: list[int]) -> set[int]:
    if g.genus() == 0:
        return set()
    _, parent_dart, depth = bfs_tree(g, 0)
    tree_edge = _tree_edges(g, parent_dart)
    face_of, nfaces = g.face_of_darts()
    _, children = _face_tree(g, tree_edge, face_of, nfaces, face_of[0])
    used = {e for kids in children for _, e in kids}
    leftover = [e for e in range(g.num_edges) if not tree_edge[e] and e not in used]
    if len(leftover) != 2 * g.genus():
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
