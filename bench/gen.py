"""Seeded input generators for the benchmark.

Every generator returns a rotation system as plain lists: ``rows[v]`` is the
clockwise neighbour list of node ``v``.  Nothing here imports ``plancode``;
the benchmark turns the rows into graphs only when it hands them to the
library.  The same seed always gives the same rows.
"""

from __future__ import annotations

import random

# -- primitives -----------------------------------------------------------------


def _insert_after(row: list[int], ref: int, new: int) -> None:
    row.insert(row.index(ref) + 1, new)


def stacked_triangulation(n: int, rng: random.Random) -> list[list[int]]:
    """Random stacked (Apollonian) triangulation on ``n >= 3`` nodes: start
    from a triangle and repeatedly star a uniformly chosen face."""
    if n < 3:
        raise ValueError("a triangulation needs at least 3 nodes")
    rows = [[1, 2], [0, 2], [0, 1]]
    # Faces as clockwise walks (a, b, c): at b, c follows a in rows[b].
    faces = [(0, 1, 2), (0, 2, 1)]
    for v in range(3, n):
        i = rng.randrange(len(faces))
        a, b, c = faces[i]
        _insert_after(rows[a], c, v)
        _insert_after(rows[b], a, v)
        _insert_after(rows[c], b, v)
        rows.append([b, a, c])
        faces[i] = (a, b, v)
        faces.append((b, c, v))
        faces.append((c, a, v))
    return rows


def _spanning_tree_edges(rows: list[list[int]], root: int) -> set[tuple[int, int]]:
    seen = [False] * len(rows)
    seen[root] = True
    order = [root]
    tree = set()
    for u in order:
        for w in rows[u]:
            if not seen[w]:
                seen[w] = True
                order.append(w)
                tree.add((min(u, w), max(u, w)))
    return tree


def thinned_triangulation(n: int, rng: random.Random) -> list[list[int]]:
    """A stacked triangulation with ``n - 6`` random non-tree edges deleted,
    leaving a connected plane graph with exactly ``2n`` edges (``n >= 6``).
    Deleting an edge off a spanning tree never disconnects, and deleting an
    edge from a plane rotation system keeps it plane."""
    if n < 6:
        raise ValueError("a thinned triangulation needs at least 6 nodes")
    rows = stacked_triangulation(n, rng)
    tree = _spanning_tree_edges(rows, rng.randrange(n))
    spare = sorted(
        (u, w) for u in range(n) for w in rows[u] if u < w and (u, w) not in tree
    )
    for u, w in rng.sample(spare, n - 6):
        rows[u].remove(w)
        rows[w].remove(u)
    return rows


def random_tree(n: int, rng: random.Random, max_degree: int | None = None) -> list[list[int]]:
    """Random recursive plane tree: each new node hangs off a uniformly
    chosen node of degree below ``max_degree``, at a random rotation slot."""
    rows: list[list[int]] = [[]]
    open_nodes = [0]
    for v in range(1, n):
        k = rng.randrange(len(open_nodes))
        u = open_nodes[k]
        rows[u].insert(rng.randrange(len(rows[u]) + 1), v)
        rows.append([u])
        if max_degree is not None and len(rows[u]) >= max_degree:
            open_nodes[k] = open_nodes[-1]
            open_nodes.pop()
        if max_degree is None or max_degree > 1:
            open_nodes.append(v)
    return rows


def grid(r: int, c: int) -> list[list[int]]:
    """The r x c grid, drawn with rows downward; neighbours clockwise as
    up, right, down, left."""
    rows = []
    for i in range(r):
        for j in range(c):
            row = []
            if i > 0:
                row.append((i - 1) * c + j)
            if j + 1 < c:
                row.append(i * c + j + 1)
            if i + 1 < r:
                row.append((i + 1) * c + j)
            if j > 0:
                row.append(i * c + j - 1)
            rows.append(row)
    return rows


def wheel_with_tail(k: int, tail: int) -> list[list[int]]:
    """Hub 0 joined to the rim cycle 1..k, plus a path of ``tail`` nodes
    hanging off rim node 1 into the outer face."""
    rows = [list(range(1, k + 1))]
    for i in range(1, k + 1):
        prev = k if i == 1 else i - 1
        nxt = 1 if i == k else i + 1
        rows.append([nxt, 0, prev])
    prev_node = 1
    for t in range(tail):
        v = k + 1 + t
        if prev_node == 1:
            # the outer face at rim node 1 lies between rim node k and rim node 2
            rows[1].insert(rows[1].index(k) + 1, v)
        else:
            rows[prev_node].append(v)
        rows.append([prev_node])
        prev_node = v
    return rows


def antiprism(k: int) -> list[list[int]]:
    """The antiprism on 2k nodes, the circulant C_2k(1, 2) (``k >= 3``):
    node i is adjacent to i +- 1 and i +- 2 modulo 2k."""
    n = 2 * k
    rows = []
    for i in range(n):
        a, b, c, d = ((i + s) % n for s in (2, 1, -1, -2))
        rows.append([a, b, c, d] if i % 2 == 0 else [d, c, b, a])
    return rows


def relabel(rows: list[list[int]], perm: list[int]) -> list[list[int]]:
    """Rows of the same embedded graph with node v renamed perm[v]."""
    out: list[list[int]] = [[] for _ in rows]
    for v, row in enumerate(rows):
        out[perm[v]] = [perm[w] for w in row]
    return out


def shuffled(rows: list[list[int]], rng: random.Random) -> list[list[int]]:
    perm = list(range(len(rows)))
    rng.shuffle(perm)
    return relabel(rows, perm)


def disjoint_union(parts: list[list[list[int]]]) -> list[list[int]]:
    out: list[list[int]] = []
    for rows in parts:
        off = len(out)
        out.extend([w + off for w in row] for row in rows)
    return out

