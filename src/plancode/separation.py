"""Nested multilevel separations of one connected component of an embedded
host graph.

A separation splits the component's nodes into a center V0 and parts
V_1..V_p so that no host edge joins two distinct parts — every edge stays
inside one part or touches the center. A chain of separations, one per
level, refines the trivial separation (empty center, one part): each level
grows the center and re-partitions the remainder, keeping three nesting
properties:

  R1: the center only grows from level to level;
  R2: every part lies inside a single part of the previous level;
  R3: parts of one previous-level part occupy a contiguous index range.

Per level, the center grows by three stages — the host's handle-cutting
nodes (positive genus; found once per host), nodes of degree above the
level's threshold r, and decomposition cuts that shrink every remaining
component to the level's cap — and the remaining components are then
clustered into parts around center "hooks", greedily up to the same cap.

A component is a sorted list of host nodes, and every step reads the host's
own rotations; no subgraph is copied.  The choices follow the order of the
host nodes, so they are the ones made on the component's induced copy, up to
its ascending relabeling.  The per-node arrays the steps need are sized by
the host and held in a ``Scratch`` that the separations of all its
components share, so a component costs time in its own size.

This module builds separations and checks only what the codec relies on as
it builds them.  The full check of a separation against its definition,
with the construction's size envelopes, is a test oracle
(``tests/sep_check.py``).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .embgraph import EmbeddedGraph
from .errors import ChecksFailed, Disconnected
from .planar_sep import Stamps, components_in, decompose_cut, planarize


def ell(n: int, k: int) -> float:
    """k-fold iterated base-2 logarithm of n, clamped at 1 per step.

    ell(n, 0) = n; ell(16, 1) = 4.0; ell(16, 3) = 1.0. For k >= 1 the first
    log is taken on the int directly, so n may be arbitrarily large.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return float(n)
    x = max(1.0, math.log2(n))
    for _ in range(k - 1):
        x = max(1.0, math.log2(x))
    return x


@dataclass(frozen=True)
class LevelProfile:
    """The degree rule and the cap of one refinement level.

    Nodes of host degree > r join the center, the remaining components are
    cut to <= cap nodes, and clustering packs whole components into parts
    greedily up to cap total nodes, so no part holds more than cap nodes.
    """

    r: int
    cap: int

    def __post_init__(self) -> None:
        if self.r < 1 or self.cap < 1:
            raise ValueError("level profile r and cap must be >= 1")


# The finest level is the k = 2 iterated-log level: its parts, of at most
# ceil(1.5 ell(n, 2)^4) nodes (270 at n = 6400), are the ones the codec writes.
_LOG_LEVELS = 2
# The factors on lam^2 (the degree rule r) and on lam^4 (the cap) are a
# point picked from a measured curve of container size and speed over both.
# A hub in the center borders many parts, and every change of part around it
# costs the recovery stream a splice triple, so a larger r saves bits; past
# about 2.5 sparse graphs take more bits again, and with no degree rule at
# all triangulation encode runs at half speed.  Larger caps give fewer,
# larger contour-coded parts and fewer splices.
_R_FACTOR = 2.5
_CAP_FACTOR = 1.5


def level_schedule(n: int) -> list[LevelProfile]:
    """Level profiles for a host of n nodes, coarsest first.

    One profile per iterated-log level whose cap binds (cap < n), with
    lam = ell(n, k): r = ceil(2.5 lam^2) and cap ceil(1.5 lam^4), which
    bounds both the components and the parts.  No level binds for n = 6 to 72, only the k = 2 level
    binds from 73 to 122,394, and both from 122,395 on."""
    out: list[LevelProfile] = []
    for k in range(1, _LOG_LEVELS + 1):
        lam = ell(n, k)
        cap = math.ceil(_CAP_FACTOR * lam**4)
        if cap >= n:
            continue
        out.append(LevelProfile(r=math.ceil(_R_FACTOR * lam * lam), cap=cap))
    return out


class Scratch:
    """Per-node arrays of one host, built once and shared by the separations
    of all its components: the host's degrees, the ``Stamps`` that
    ``decompose_cut`` marks pieces with, and two maps that ``refine`` writes
    at a component's nodes before it reads them there.  ``handle_cut`` holds
    ``planarize(host)`` once a separation of unknown or positive genus
    asks for it."""

    __slots__ = ("degree", "stamps", "comp_id", "part_of", "handle_cut")

    def __init__(self, host: EmbeddedGraph) -> None:
        self.degree = Counter(host.node_of)
        self.stamps = Stamps(host.n)
        self.comp_id = [0] * host.n
        self.part_of = [0] * host.n
        self.handle_cut: set[int] | None = None


@dataclass
class Separation:
    """One level of a nested separation chain of a component of ``host``.

    parts[0] is the center (possibly empty); parts[1..p] are the parts, and
    together they hold the component's nodes. All part lists are sorted.
    hooks[i] is the center node the clustering grew part i from (-1 for the
    center entry and for a hookless whole-component part, which only arises
    when the center is empty). prev_part[i] is the index of the previous
    level's part containing part i (0 for the center entry). profiles holds
    the chain of level profiles applied so far, so a Separation knows its
    own level's caps (profiles[-1], none at level 0) and its ancestors'.
    """

    host: EmbeddedGraph
    level: int
    profiles: tuple[LevelProfile, ...]
    parts: list[list[int]]
    hooks: list[int]
    prev_part: list[int]

    @property
    def p(self) -> int:
        """Number of parts (excluding the center)."""
        return len(self.parts) - 1

    @property
    def center(self) -> list[int]:
        return self.parts[0]

    def part_of(self, out: list[int] | None = None) -> list[int]:
        """node -> index of the part containing it (0 = center), -1 off the
        separation's nodes.  Given ``out``, a host-sized list, it writes the
        separation's nodes into it and leaves the others as they are."""
        if out is None:
            out = [-1] * self.host.n
        for i, part in enumerate(self.parts):
            for v in part:
                out[v] = i
        return out


def trivial_separation(host: EmbeddedGraph, nodes: list[int] | None = None) -> Separation:
    """Level 0: empty center, one hookless part holding every node of the
    component ``nodes`` (sorted; by default the whole host)."""
    return Separation(
        host=host,
        level=0,
        profiles=(),
        parts=[[], list(range(host.n)) if nodes is None else nodes],
        hooks=[-1, -1],
        prev_part=[0, 0],
    )


def fragment(
    host: EmbeddedGraph,
    nodes: list[int],
    profile: LevelProfile,
    prev_center: set[int],
    scratch: Scratch | None = None,
) -> tuple[set[int], list[list[int]]]:
    """Grow prev_center into this level's center of the component ``nodes``
    of host (sorted), and return it with the components of the component
    minus it, as ``decompose_cut`` leaves them: sorted node lists ordered by
    smallest node.

    Adds every node of degree > profile.r not yet in it, and decomposition
    cuts that shrink each remaining component to <= profile.cap nodes.
    ``decompose_cut`` works on the remaining host nodes in place; no
    subgraph is copied. The host's handle-cutting nodes are not added here:
    ``refine`` passes them in with prev_center.  ``scratch`` is the host's
    (built here when not given).
    """
    if scratch is None:
        scratch = Scratch(host)
    center = set(prev_center)
    r, degree = profile.r, scratch.degree
    center.update(v for v in nodes if degree[v] > r)
    rest = [v for v in nodes if v not in center]
    if not rest:
        return center, []
    cut, comps = decompose_cut(host, rest, profile.cap, scratch.stamps)
    return center | cut, comps


def refine(
    host: EmbeddedGraph,
    nodes: list[int],
    prev: Separation,
    profile: LevelProfile,
    cut: set[int],
    scratch: Scratch | None = None,
) -> Separation:
    """One refinement level of the component ``nodes`` of host (sorted),
    which ``prev`` separates: grow the previous center plus ``cut``, the
    component's handle-cutting nodes (from ``planarize``, empty for genus
    0), with fragment(), then cluster the remaining components into parts.
    ``scratch`` is the host's (built here when not given).

    The components are the ones ``fragment`` returns; the host is not
    searched for them again.  At level 1, refine also proves ``nodes``
    connected, which ``build_separations`` leaves to it: a union-find over
    the components and the center nodes, joined along the center's darts,
    must end in one set.  Those darts are walked anyway for the hook
    candidates.  Raises Disconnected otherwise.  ``nodes`` must hold every
    neighbor of its nodes, as a component does: the center's darts are read
    through maps that ``scratch`` holds for the component's nodes only.

    Clustering runs inside one previous-level part at a time (keeping R2 and
    R3 by construction). Within it, center nodes adjacent to an unclustered
    component are visited in ascending label order; each visit collects the
    node's adjacent unclustered components in the order they first appear in
    its rotation (started at the smallest-label neighbor), packs them into
    parts greedily up to the level's cap — never splitting a component,
    which ``fragment`` left within that cap — and marks them all clustered.
    """
    if host is not prev.host:
        raise ValueError("refine: prev separation belongs to a different host")
    if scratch is None:
        scratch = Scratch(host)
    center, comps = fragment(host, nodes, profile, set(prev.center) | cut, scratch)
    center_list = sorted(center)
    # comp_id[v]: the component of v, or ~k for the center's k-th node
    comp_id = scratch.comp_id
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_id[v] = ci
    for k, v in enumerate(center_list):
        comp_id[v] = ~k

    prev_of = prev.part_of(scratch.part_of)
    comp_coarse: list[int] = []
    for comp in comps:
        if len(comp) > profile.cap:
            raise ChecksFailed(f"fragment left a component of {len(comp)} > cap {profile.cap}")
        j = prev_of[comp[0]]
        if j == 0 or any(prev_of[v] != j for v in comp):
            raise ChecksFailed("component crosses previous-level parts")
        comp_coarse.append(j)

    by_coarse: dict[int, list[int]] = {}
    for ci, j in enumerate(comp_coarse):
        by_coarse.setdefault(j, []).append(ci)

    parts: list[list[int]] = [center_list]
    hooks: list[int] = [-1]
    prev_part: list[int] = [0]
    marked = [False] * len(comps)
    node_of, nxt, first = host.node_of, host.nxt, host.first

    # hook candidates per previous-level part: the center nodes adjacent to
    # one of its components.  At level 1 the same darts join the union-find
    # whose elements are the components, then the center nodes.
    prove_connected = prev.level == 0
    nc = len(comps)
    uf = list(range(nc + len(center_list))) if prove_connected else []
    sets = len(uf)

    def find(x: int) -> int:
        while uf[x] != x:
            uf[x] = x = uf[uf[x]]
        return x

    hook_cands: dict[int, set[int]] = {}
    for k, v in enumerate(center_list):
        d0 = first[v]
        if d0 < 0:
            continue
        if prove_connected:
            root = find(nc + k)  # stays a root: every union below hangs under it
        d = d0
        while True:
            ci = comp_id[node_of[d ^ 1]]
            if ci >= 0:
                hook_cands.setdefault(comp_coarse[ci], set()).add(v)
            if prove_connected:
                x = ci if ci >= 0 else nc + ~ci
                if uf[x] != root:
                    x = find(x)
                    if x != root:
                        uf[x] = root
                        sets -= 1
            d = nxt[d]
            if d == d0:
                break
    if sets > 1:
        raise Disconnected("separation host must be connected")

    def emit(cluster: list[int], hook: int, j: int) -> None:
        nodes: list[int] = []
        for ci in cluster:
            nodes.extend(comps[ci])
        parts.append(sorted(nodes))
        hooks.append(hook)
        prev_part.append(j)

    for j in sorted(by_coarse):
        cids = by_coarse[j]
        for v0 in sorted(hook_cands.get(j, ())):
            ordered: list[int] = []
            seen: set[int] = set()
            d0 = host.min_dart_at(v0)
            d = d0
            while True:
                ci = comp_id[node_of[d ^ 1]]
                if (
                    ci >= 0
                    and comp_coarse[ci] == j
                    and not marked[ci]
                    and ci not in seen
                ):
                    seen.add(ci)
                    ordered.append(ci)
                d = nxt[d]
                if d == d0:
                    break
            if not ordered:
                continue
            cluster = [ordered[0]]
            size = len(comps[ordered[0]])
            for ci in ordered[1:]:
                if size + len(comps[ci]) <= profile.cap:
                    cluster.append(ci)
                    size += len(comps[ci])
                else:
                    emit(cluster, v0, j)
                    cluster = [ci]
                    size = len(comps[ci])
            emit(cluster, v0, j)
            for ci in ordered:
                marked[ci] = True
        leftovers = [ci for ci in cids if not marked[ci]]
        if leftovers:
            # only possible when no center node touches these components;
            # on a connected host that means the center is empty
            if center:
                raise Disconnected("separation host must be connected")
            for ci in leftovers:
                emit([ci], -1, j)
                marked[ci] = True

    return Separation(
        host=host,
        level=prev.level + 1,
        profiles=prev.profiles + (profile,),
        parts=parts,
        hooks=hooks,
        prev_part=prev_part,
    )


def build_separations(
    host: EmbeddedGraph,
    nodes: list[int] | None = None,
    genus: int | None = None,
    scratch: Scratch | None = None,
) -> list[Separation]:
    """The full chain [trivial, level 1, ..., level K] for the component
    ``nodes`` of host (sorted; by default the whole host), one level per
    profile of ``level_schedule(len(nodes))``.  The handle-cutting nodes
    are computed once for the host, kept in ``scratch``, and the
    component's join every level's center.  ``genus`` bounds the host's
    genus when the caller knows it: at 0 there is no handle to cut, and
    ``planarize`` is not run.  ``scratch`` is the host's, shared by the
    chains of its components (built here when not given).

    Raises Disconnected when ``nodes`` is not connected.  The first level's
    ``refine`` proves it connected from the components and center it
    builds anyway, so the nodes are searched for components only when no
    level binds."""
    if nodes is None:
        nodes = list(range(host.n))
    if not nodes:
        raise ValueError("empty host")
    if scratch is None:
        scratch = Scratch(host)
    profiles = level_schedule(len(nodes))
    if not profiles and len(components_in(host, nodes, scratch.stamps)) > 1:
        raise Disconnected("separation host must be connected")
    if genus == 0:
        cut = set()
    else:
        if scratch.handle_cut is None:
            scratch.handle_cut = planarize(host)
        cut = scratch.handle_cut.intersection(nodes)
    seps = [trivial_separation(host, nodes)]
    for prof in profiles:
        seps.append(refine(host, nodes, seps[-1], prof, cut, scratch))
    return seps
