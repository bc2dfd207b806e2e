"""Completing part graphs into class members, with reversible fixes.

A part graph cut out of a host need not belong to the table class it is
coded against when that class is not closed under taking subgraphs: a
connected host can have disconnected parts.  A *completion* embeds the part
graph into a slightly larger member of the class, and the *fix* records
exactly what must be undone — nodes to delete, edges to delete — so the part
graph can be rebuilt from the member alone.

``complete_connected`` links the components of a plane graph with fresh
edges into one connected plane graph; ``complete`` dispatches on a class's
patch kind.  ``apply_fix`` inverts a completion: it deletes the fix's nodes
and edges and compacts the surviving labels in order, recovering the
original part graph with its embedding intact.  Both sides of a codec can
therefore agree on the part graph while only a member index and a fix cross
the wire.

Completions never relabel: input nodes keep their labels and the cyclic
order of surviving darts around each node is untouched.  Everything is
deterministic, so encoder and decoder arrive at identical graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .embgraph import EmbeddedGraph
from .errors import CodecError

__all__ = [
    "EMPTY_FIX",
    "Fix",
    "apply_fix",
    "complete",
    "complete_connected",
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


def complete_connected(g: EmbeddedGraph) -> tuple[EmbeddedGraph, Fix]:
    """Link the components of a plane graph into one connected plane graph.

    Every later component is joined to the first by a fresh edge from the
    smallest label overall to the smallest label of the joined component,
    inserted at both nodes' first stored corner.  Edges between distinct
    components merge one face of each, so genus is unchanged.  The fix
    deletes the linking edges again; components arrive sorted by smallest
    node, which makes its edge list ascending by construction.  When ``g`` is
    already connected it is returned unchanged (the same object) with an
    empty fix.
    """
    comps = g.components()
    if len(comps) <= 1:
        return g, EMPTY_FIX
    rots = g.to_rotations()
    base = comps[0][0]
    added: list[tuple[int, int]] = []
    for comp in comps[1:]:
        v = comp[0]
        rots[base].insert(0, v)
        rots[v].insert(0, base)
        added.append((base, v))
    return EmbeddedGraph.from_rotations(rots), Fix((), tuple(added))


def complete(g: EmbeddedGraph, patch: str) -> tuple[EmbeddedGraph, Fix]:
    """Dispatch to the completion for a class's patch kind.

    "none" returns the graph as-is with an empty fix (the class keeps part
    graphs as members); "connect" links components.
    """
    if patch == "none":
        return g, EMPTY_FIX
    if patch == "connect":
        return complete_connected(g)
    raise ValueError(f"unknown patch kind: {patch!r}")
