"""Nested multilevel separations of a connected embedded host graph.

A separation splits the host's nodes into a center V0 and parts V_1..V_p so
that no host edge joins two distinct parts — every edge stays inside one part
or touches the center. A chain of separations, one per level, refines the
trivial separation (empty center, one part): each level grows the center and
re-partitions the remainder, keeping three nesting properties:

  R1: the center only grows from level to level;
  R2: every part lies inside a single part of the previous level;
  R3: parts of one previous-level part occupy a contiguous index range.

Per level, the center grows by three stages — the host's handle-cutting
nodes (positive genus; found once per host), nodes of degree above the
level's threshold r, and decomposition cuts that shrink every remaining
component to the level's cap — and the remaining components are then
clustered into parts around center "hooks", greedily up to the same cap.

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
from .planar_sep import decompose_cut, planarize


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


@dataclass
class Separation:
    """One level of a nested separation chain.

    parts[0] is the center (possibly empty); parts[1..p] are the parts. All
    part lists are sorted. hooks[i] is the center node the clustering grew
    part i from (-1 for the center entry and for a hookless whole-component
    part, which only arises when the center is empty). prev_part[i] is the
    index of the previous level's part containing part i (0 for the center
    entry). profiles holds the chain of level profiles applied so far, so a
    Separation knows its own level's caps (profiles[-1], none at level 0)
    and its ancestors'.
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

    def part_of(self) -> list[int]:
        """node -> index of the part containing it (0 = center)."""
        out = [-1] * self.host.n
        for i, part in enumerate(self.parts):
            for v in part:
                out[v] = i
        return out


def trivial_separation(host: EmbeddedGraph) -> Separation:
    """Level 0: empty center, one hookless part holding every node."""
    return Separation(
        host=host,
        level=0,
        profiles=(),
        parts=[[], list(range(host.n))],
        hooks=[-1, -1],
        prev_part=[0, 0],
    )


def fragment(
    host: EmbeddedGraph, profile: LevelProfile, prev_center: set[int]
) -> tuple[set[int], list[list[int]]]:
    """Grow prev_center into this level's center, and return it with the
    components of the host minus it, as ``decompose_cut`` leaves them:
    sorted node lists ordered by smallest node.

    Adds every node of degree > profile.r not yet in it, and decomposition
    cuts that shrink each remaining component to <= profile.cap nodes.
    ``decompose_cut`` works on the remaining host nodes in place; no
    subgraph is copied. The host's handle-cutting nodes are not added here:
    ``refine`` passes them in with prev_center.
    """
    center = set(prev_center)
    r = profile.r
    center.update(v for v, deg in Counter(host.node_of).items() if deg > r)
    rest = [v for v in range(host.n) if v not in center]
    if not rest:
        return center, []
    cut, comps = decompose_cut(host, rest, profile.cap)
    return center | cut, comps


def refine(
    host: EmbeddedGraph, prev: Separation, profile: LevelProfile, cut: set[int]
) -> Separation:
    """One refinement level: grow the previous center plus ``cut``, the
    host's handle-cutting nodes (``planarize(host)``, empty for genus 0),
    with fragment(), then cluster the remaining components into parts.

    The components are the ones ``fragment`` returns; the host is not
    searched for them again.  At level 1, refine also proves the host
    connected, which ``build_separations`` leaves to it: a union-find over
    the components and the center nodes, joined along the center's darts,
    must end in one set.  Those darts are walked anyway for the hook
    candidates.  Raises Disconnected otherwise.

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
    center, comps = fragment(host, profile, set(prev.center) | cut)
    center_list = sorted(center)
    # comp_id[v]: the component of v, or ~k for the center's k-th node
    comp_id = [-1] * host.n
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_id[v] = ci
    for k, v in enumerate(center_list):
        comp_id[v] = ~k

    prev_of = prev.part_of()
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


def build_separations(host: EmbeddedGraph, genus: int | None = None) -> list[Separation]:
    """The full chain [trivial, level 1, ..., level K] for the host, one
    level per profile of ``level_schedule(host.n)``.  The handle-cutting
    nodes are computed once for the host and join every level's center.
    ``genus`` bounds the host's genus when the caller knows it: at 0 there
    is no handle to cut, and ``planarize`` is not run.

    Raises Disconnected for a disconnected host.  The first level's
    ``refine`` proves the host connected from the components and center it
    builds anyway, so the host is searched for components only when no
    level binds."""
    if host.n == 0:
        raise ValueError("empty host")
    profiles = level_schedule(host.n)
    if not profiles and not host.connected:
        raise Disconnected("separation host must be connected")
    cut = set() if genus == 0 else planarize(host)
    seps = [trivial_separation(host)]
    for prof in profiles:
        seps.append(refine(host, seps[-1], prof, cut))
    return seps
