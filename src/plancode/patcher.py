"""Completing part graphs into class members, with reversible fixes.

A part graph cut out of a host need not belong to the host's class when the
class is not closed under taking subgraphs: a connected host can have
disconnected parts, and parts of a triangulation are almost never
triangulations themselves.  A *completion* embeds the part graph into a
slightly larger member of the class, and the *fix* records exactly what must
be undone — fresh nodes to delete, edges to delete — so the part graph can
be rebuilt from the member alone.

Two completions are provided, one per patchable class kind:

- ``complete_connected`` links the components of a plane graph with fresh
  edges into one connected plane graph.
- ``complete_triangulation`` turns a plane graph into a plane triangulation:
  it links components the same way, then repeatedly places a fresh node
  inside a non-triangular face, connected to the first visit of every
  distinct corner of the face walk.  Edges between two marked ``boundary``
  nodes are scheduled for deletion in the fix; callers that encode a part
  graph (which by construction has no such edges) pass the induced subgraph
  here, whose boundary-internal edges make most faces triangles already.

``apply_fix`` inverts either completion: it deletes the fix's nodes and
edges and compacts the surviving labels in order, recovering the original
part graph with its embedding intact.  Both sides of a codec can therefore
agree on the part graph while only a member index and a fix cross the wire.

Completions never relabel: input nodes keep their labels, fresh nodes take
the next labels in order, and the cyclic order of surviving darts around
each node is untouched.  Everything is deterministic, so encoder and decoder
arrive at identical graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .embgraph import EmbeddedGraph
from .errors import ChecksFailed, CodecError

__all__ = [
    "EMPTY_FIX",
    "Fix",
    "apply_fix",
    "complete",
    "complete_connected",
    "complete_triangulation",
]


def _norm_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class Fix:
    """What to undo to turn a completed member back into the part graph.

    ``added_nodes`` are labels to delete together with all their edges;
    ``deleted_edges`` are label pairs of further edges to delete.  Both are
    kept normalized — nodes strictly ascending, edges as (small, large)
    pairs in strictly ascending order, no edge at a deleted node — so equal
    fixes compare equal and a serialized fix has exactly one accepted form.
    """

    added_nodes: tuple[int, ...] = ()
    deleted_edges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        nodes = self.added_nodes
        if any(b <= a for a, b in zip(nodes, nodes[1:])):
            raise ValueError("fix nodes must be strictly ascending")
        dropped = set(nodes)
        edges = self.deleted_edges
        for u, v in edges:
            if u >= v:
                raise ValueError("fix edges must be normalized (small, large) pairs")
            if u in dropped or v in dropped:
                raise ValueError("fix edge at a deleted node is redundant")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError("fix edges must be strictly ascending")

    @property
    def size(self) -> int:
        """Cost measure: one unit per deleted node or edge."""
        return len(self.added_nodes) + len(self.deleted_edges)

    def relabeled(self, perm: Sequence[int]) -> "Fix":
        """The same fix on a graph relabeled by ``perm`` (old -> new)."""
        return Fix(
            tuple(sorted(perm[v] for v in self.added_nodes)),
            tuple(sorted(_norm_edge(perm[u], perm[v]) for u, v in self.deleted_edges)),
        )


EMPTY_FIX = Fix()


# -- applying a fix -------------------------------------------------------------


def apply_fix(g: EmbeddedGraph, fix: Fix) -> EmbeddedGraph:
    """Delete the fix's nodes (with their edges) and edges from ``g`` and
    compact the surviving labels in ascending order.

    Raises CodecError when the fix does not match the graph: a label out of
    range, an edge the graph does not have, or nothing left afterwards.
    Restricting a rotation system keeps it valid, so the result is always a
    well-formed embedding; deleting from a plane graph keeps it plane.
    """
    n = g.n
    for v in fix.added_nodes:
        if not 0 <= v < n:
            raise CodecError("fix deletes a node outside the graph")
    drop = set(fix.added_nodes)
    if len(drop) >= n:
        raise CodecError("fix deletes every node")
    dele = set()
    for u, v in fix.deleted_edges:
        if not 0 <= u < n or not 0 <= v < n:
            raise CodecError("fix deletes an edge outside the graph")
        if not g.has_edge(u, v):
            raise CodecError("fix deletes an edge the graph does not have")
        dele.add((u, v))
    keep = [v for v in range(n) if v not in drop]
    new = {v: i for i, v in enumerate(keep)}
    rots: list[list[int]] = []
    for v in keep:
        row: list[int] = []
        d0 = g.min_dart_at(v)
        if d0 >= 0:
            for d in g.rotation_from(d0):
                w = g.head(d)
                if w in drop or _norm_edge(v, w) in dele:
                    continue
                row.append(new[w])
        rots.append(row)
    return EmbeddedGraph.from_rotations(rots)


# -- completions ----------------------------------------------------------------


def _link_components(rots: list[list[int]], comps: list[list[int]]) -> list[tuple[int, int]]:
    """Join every later component to the first by a fresh edge, mutating the
    rotation rows in place; returns the added edges (normalized, ascending).

    Each edge runs from the smallest label overall to the smallest label of
    the joined component and is inserted at both nodes' first stored corner.
    Edges between distinct components merge one face of each, so genus is
    unchanged.  Components arrive sorted by smallest node, which makes the
    added edge list ascending by construction.
    """
    base = comps[0][0]
    added: list[tuple[int, int]] = []
    for comp in comps[1:]:
        v = comp[0]
        rots[base].insert(0, v)
        rots[v].insert(0, base)
        added.append((base, v))
    return added


def complete_connected(g: EmbeddedGraph) -> tuple[EmbeddedGraph, Fix]:
    """Link the components of a plane graph into one connected plane graph.

    The fix deletes the linking edges again.  When ``g`` is already
    connected it is returned unchanged (the same object) with an empty fix.
    """
    comps = g.components()
    if len(comps) <= 1:
        return g, EMPTY_FIX
    rots = g.to_rotations()
    added = _link_components(rots, comps)
    return EmbeddedGraph.from_rotations(rots), Fix((), tuple(added))


def complete_triangulation(
    g: EmbeddedGraph, boundary: Iterable[int] = ()
) -> tuple[EmbeddedGraph, Fix]:
    """Complete a plane graph into a plane triangulation.

    Components are linked first; faces are then starred from fresh nodes
    until every face walk is a triangle.  Edges of ``g`` between two
    ``boundary`` nodes are scheduled for deletion in the fix: they belong to
    the completion, not to the part graph the fix recovers.  Input nodes
    keep their labels and rotations; fresh nodes take labels from ``g.n``
    up, in the order the faces they fill are found.
    """
    if g.n < 2:
        raise ChecksFailed("triangulation completion needs at least 2 nodes")
    bset = set(boundary)
    if any(not 0 <= v < g.n for v in bset):
        raise ChecksFailed("boundary node outside the graph")
    deleted = {(u, v) for u, v in g.edges() if u in bset and v in bset}
    rots = g.to_rotations()
    comps = g.components()
    if len(comps) > 1:
        deleted.update(_link_components(rots, comps))
    h = EmbeddedGraph.from_rotations(rots)
    while True:
        walk = next((w for w in h.faces() if len(w) != 3), None)
        if walk is None:
            break
        _star_face(h, walk)
    return h, Fix(tuple(range(g.n, h.n)), tuple(sorted(deleted)))


def _star_face(g: EmbeddedGraph, walk: list[int]) -> int:
    """Place a fresh node inside the face of ``walk`` and connect it to the
    first visit of every distinct corner, fanning the face into triangles.
    Returns the new node.

    A corner visited again later is skipped, so the stretch between two
    consecutive connected visits survives as a smaller face (the skipped
    visits plus the star node) that a later round picks up.  Rounds
    terminate: with R(f) = corner visits minus distinct corners, every
    non-triangle child face of a star has R strictly below the number of
    repeated visits in its stretch (a child interior corner equal to one of
    the stretch's endpoints would repeat a dart or a corner back to back),
    so the sum of lengths plus 4R over non-triangle faces strictly drops.
    """
    node = [g.node_of[d] for d in walk]
    seen: set[int] = set()
    firsts: list[int] = []
    for i, v in enumerate(node):
        if v not in seen:
            seen.add(v)
            firsts.append(i)
    # a closed walk in a simple graph alternates between >= 2 distinct nodes
    assert len(firsts) >= 2, "face walk with a single corner"
    z = g.add_node()
    _du, dz = g.attach_edge(walk[firsts[0]], z)
    dcur = dz
    for t in firsts[1:]:
        dcur, _dt = g.insert_chord(dcur, walk[t])
    return z


def complete(g: EmbeddedGraph, boundary: Iterable[int], patch: str) -> tuple[EmbeddedGraph, Fix]:
    """Dispatch to the completion for a class's patch kind.

    "none" returns the graph as-is with an empty fix (the class keeps part
    graphs as members); "connect" links components; "star" additionally
    triangulates.  Only "star" uses ``boundary``.
    """
    if patch == "none":
        return g, EMPTY_FIX
    if patch == "connect":
        return complete_connected(g)
    if patch == "star":
        return complete_triangulation(g, boundary)
    raise ValueError(f"unknown patch kind: {patch!r}")
