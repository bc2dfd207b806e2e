"""One balanced separator step on a whole graph: ``planar_separator``.

``planar_separator`` returns (S, S1, S2): deleting S leaves S1 and S2 with no
edges between them, each at most 2n/3 nodes, with |S| <= 4*sqrt(n) on planar
inputs.  When the largest component is over 2/3 of the graph it is separated
and the components left are packed into two sides.  A tree component is cut
at one node, its centroid: the node whose removal leaves the smallest
largest component, which has at most n/2 nodes (ties to the smallest label).
Any other component is cut by ``planar_sep._separate_connected``, by levels
and, if needed, a cycle.

Encode does not take this step: ``decompose_cut`` separates only the
components over its limit, and cuts trees bottom up.  The separator tests
use it to check the level cut and the cycle phase one step at a time.
"""

from __future__ import annotations

from plancode import planar_sep
from plancode.constants import SIDE_FRACTION
from plancode.embgraph import EmbeddedGraph
from plancode.planar_sep import Stamps, bfs_tree, components_in


def planar_separator(g: EmbeddedGraph) -> tuple[set[int], set[int], set[int]]:
    """Separate a planar embedded graph; see the module docstring for the
    guarantees.  Disconnected inputs are packed component-wise (S may be
    empty then)."""
    if g.n == 0:
        return set(), set(), set()
    st = Stamps(g.n)
    s, side1, side2 = _split(g, components_in(g, range(g.n), st), st)
    return s, {v for c in side1 for v in c}, {v for c in side2 for v in c}


def _split(g: EmbeddedGraph, chunks: list[list[int]], st: Stamps):
    """One separator step on g, made of the components ``chunks`` (sorted
    node lists).  Returns (S, side 1, side 2), each side a list of
    components of g minus S."""
    n = sum(map(len, chunks))
    big = max(chunks, key=len)
    if len(big) <= SIDE_FRACTION * n:
        return (set(), *_pack_chunks(chunks))
    if sum(map(g.degree, big)) == 2 * (len(big) - 1):
        # big is a whole component of g, so a BFS of g from its smallest
        # node walks it in the order the library's BFS does
        order, parent_dart, _ = bfs_tree(g, big[0])
        index = {v: i for i, v in enumerate(order)}
        up = [-1] + [index[g.node_of[parent_dart[v] ^ 1]] for v in order[1:]]
        ci = _centroid(order, up)
        s, comps = {order[ci]}, _cut_at(order, up, ci)
    else:
        # not a tree: the limit is read only by the tree cut
        s, comps = planar_sep._separate_connected(g, big, st, len(big))
    comps += [c for c in chunks if c is not big]
    return (s, *_pack_chunks(comps))


def _pack_chunks(chunks: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Distribute pairwise non-adjacent sorted chunks (each <= 2/3 of the
    total) into two sides, largest first into the lighter side; both end
    <= 2/3 of the total.  The order of ``chunks`` does not matter."""
    sides: tuple[list[list[int]], list[list[int]]] = ([], [])
    sizes = [0, 0]
    for c in sorted((c for c in chunks if c), key=lambda c: (-len(c), c[0])):
        i = 0 if sizes[0] <= sizes[1] else 1
        sides[i].append(c)
        sizes[i] += len(c)
    return sides


def _centroid(order: list[int], up: list[int]) -> int:
    """The order index of the node of a tree, given by its BFS ``order``
    and parent indices ``up``, whose removal leaves the smallest largest
    component (at most half the nodes), ties to the smallest label.

    The walk from the root into the child subtree of more than n/2 nodes
    stops at a centroid, which leaves fewer than n/2 nodes above it.  A
    tree has at most two centroids, adjacent when there are two, so the
    other one is the stop's child of exactly n/2 nodes."""
    n = len(order)
    size = [1] * n
    heavy = [0] * n  # per node, its largest child subtree
    child = [0] * n  # per node, the order index of that child
    for i in range(n - 1, 0, -1):
        p, s = up[i], size[i]
        size[p] += s
        if s > heavy[p]:
            heavy[p] = s
            child[p] = i
    c = 0
    while 2 * heavy[c] > n:
        c = child[c]
    if 2 * heavy[c] == n and order[child[c]] < order[c]:
        return child[c]
    return c


def _cut_at(order: list[int], up: list[int], ci: int) -> list[list[int]]:
    """The components of a tree, given by its BFS ``order`` and parent
    indices ``up``, minus the node at order index ``ci``: one per child
    subtree of that node, plus the rest when it is not the root.  Sorted
    lists ordered by smallest node."""
    comp_of: list = [None] * len(order)  # per order index, its component
    out = []
    for i, p in enumerate(up):
        if i == ci:
            continue
        if p == ci or p < 0:  # a child of the cut node, or the root
            comp = [order[i]]
            out.append(comp)
        else:
            comp = comp_of[p]
            comp.append(order[i])
        comp_of[i] = comp
    for comp in out:
        comp.sort()
    out.sort()
    return out
