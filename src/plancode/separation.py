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
component to the level's component cap — and the remaining components are
then clustered into parts around center "hooks", greedily up to the level's
cluster cap.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from .constants import ENVELOPE_C
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
    """Caps for one refinement level.

    Nodes of host degree > r join the center, the remaining components are
    cut to <= comp_cap nodes, and clustering packs whole components into
    parts greedily up to cluster_cap total nodes (always at least one
    component per part).
    """

    r: int
    comp_cap: int
    cluster_cap: int

    def __post_init__(self) -> None:
        if self.r < 1 or self.comp_cap < 1 or self.cluster_cap < 1:
            raise ValueError("level profile caps must be >= 1")


# The finest level is the k = 2 iterated-log level: its parts, of at most
# ceil(ell(n, 2)^4) nodes (180 at n = 6400), are the ones the codec writes.
_LOG_LEVELS = 2


def level_schedule(n: int) -> list[LevelProfile]:
    """Level profiles for a host of n nodes, coarsest first.

    One profile per iterated-log level whose caps bind (comp cap < n), with
    lam = ell(n, k): r = ceil(lam^2), component and cluster caps ceil(lam^4).
    No level binds for n = 11 to 25, and only the k = 2 level binds from
    n = 26 to 65,537."""
    out: list[LevelProfile] = []
    for k in range(1, _LOG_LEVELS + 1):
        lam = ell(n, k)
        cap = math.ceil(lam**4)
        if cap >= n:
            continue
        out.append(
            LevelProfile(r=math.ceil(lam * lam), comp_cap=cap, cluster_cap=cap)
        )
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
    Separation knows its own level's caps (profiles[-1]) and its ancestors'.
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

    @property
    def profile(self) -> LevelProfile | None:
        return self.profiles[-1] if self.profiles else None

    def part_of(self) -> list[int]:
        """node -> index of the part containing it (0 = center)."""
        out = [-1] * self.host.n
        for i, part in enumerate(self.parts):
            for v in part:
                out[v] = i
        return out

    def part_neighbors(self, i: int) -> set[int]:
        """Host-graph neighbors of part i that lie outside it."""
        return self.host.neighbors_of_set(self.parts[i])


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
) -> set[int]:
    """Grow prev_center into this level's center.

    Adds every node of degree > profile.r not yet in it, and decomposition
    cuts that shrink each remaining component to <= profile.comp_cap nodes.
    ``decompose_cut`` works on the remaining host nodes in place; no
    subgraph is copied. The host's handle-cutting nodes are not added here:
    ``refine`` passes them in with prev_center.
    """
    center = set(prev_center)
    r = profile.r
    center.update(v for v, deg in Counter(host.node_of).items() if deg > r)
    rest = [v for v in range(host.n) if v not in center]
    if rest:
        center |= decompose_cut(host, rest, profile.comp_cap)
    return center


def refine(
    host: EmbeddedGraph, prev: Separation, profile: LevelProfile, cut: set[int]
) -> Separation:
    """One refinement level: grow the previous center plus ``cut``, the
    host's handle-cutting nodes (``planarize(host)``, empty for genus 0),
    with fragment(), then cluster the remaining components into parts.

    Clustering runs inside one previous-level part at a time (keeping R2 and
    R3 by construction). Within it, center nodes adjacent to an unclustered
    component are visited in ascending label order; each visit collects the
    node's adjacent unclustered components in the order they first appear in
    its rotation (started at the smallest-label neighbor), packs them into
    parts greedily up to the cluster cap — never splitting a component, and
    always granting a part its first component even when oversized — and
    marks them all clustered.
    """
    if host is not prev.host:
        raise ValueError("refine: prev separation belongs to a different host")
    center = fragment(host, profile, set(prev.center) | cut)
    comps = host.components(center)
    comp_id = [-1] * host.n
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_id[v] = ci

    prev_of = prev.part_of()
    comp_coarse: list[int] = []
    for comp in comps:
        if len(comp) > profile.comp_cap:
            raise ChecksFailed(
                f"fragment left a component of {len(comp)} > cap {profile.comp_cap}"
            )
        j = prev_of[comp[0]]
        if j == 0 or any(prev_of[v] != j for v in comp):
            raise ChecksFailed("component crosses previous-level parts")
        comp_coarse.append(j)

    by_coarse: dict[int, list[int]] = {}
    for ci, j in enumerate(comp_coarse):
        by_coarse.setdefault(j, []).append(ci)

    parts: list[list[int]] = [sorted(center)]
    hooks: list[int] = [-1]
    prev_part: list[int] = [0]
    marked = [False] * len(comps)
    node_of, nxt = host.node_of, host.nxt

    def emit(cluster: list[int], hook: int, j: int) -> None:
        nodes: list[int] = []
        for ci in cluster:
            nodes.extend(comps[ci])
        parts.append(sorted(nodes))
        hooks.append(hook)
        prev_part.append(j)

    for j in sorted(by_coarse):
        cids = by_coarse[j]
        hook_cand = center & host.neighbors_of_set(v for ci in cids for v in comps[ci])
        for v0 in sorted(hook_cand):
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
                if size + len(comps[ci]) <= profile.cluster_cap:
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
    is no handle to cut, and ``planarize`` is not run."""
    if host.n == 0:
        raise ValueError("empty host")
    if not host.connected:
        raise Disconnected("separation host must be connected")
    cut = set() if genus == 0 else planarize(host)
    seps = [trivial_separation(host)]
    for prof in level_schedule(host.n):
        seps.append(refine(host, seps[-1], prof, cut))
    return seps


# -- size envelopes ----------------------------------------------------------
#
# The envelopes below are the bounds the construction itself guarantees; the
# center/parts/boundary checks report measured values against them. They are
# deliberately loose (and vacuous, >= n, at levels whose caps are tiny or on
# positive-genus hosts): honesty over flattery.


def envelope_cut(n: int, comp_cap: int) -> int:
    """Nodes the decomposition cuts can remove while capping components.

    Each split of an m-node piece removes <= 4*sqrt(m); pieces split at one
    recursion depth are disjoint and each exceed comp_cap, so per depth the
    removals total <= 4*n/sqrt(comp_cap), over <= log_1.5(n/comp_cap) depths
    (every side loses at least a third of its piece).
    """
    if n <= comp_cap:
        return 0
    depths = max(1.0, math.log(max(n / comp_cap, 2.0), 1.5))
    return math.ceil(4.0 * n / math.sqrt(comp_cap) * depths)


def envelope_center(n: int, profiles: Sequence[LevelProfile], genus: int) -> int:
    """Upper envelope for the center size after the given levels."""
    total = n if genus > 0 else 0
    for prof in profiles:
        total += math.ceil((6 * n + 12 * genus) / prof.r)
        total += envelope_cut(n, prof.comp_cap)
    return min(n, total) + math.ceil(ENVELOPE_C * math.sqrt(n))


def envelope_parts(n: int, profiles: Sequence[LevelProfile], genus: int) -> int:
    """Upper envelope for the part count at the last given level.

    Consecutive parts packed from one hook visit exceed the cluster cap
    pairwise, so non-final parts number <= 2n/cap; there is at most one
    final part per (hook, previous-level part) visit, and those visits are
    bounded by the center size plus the previous level's total boundary.
    """
    if not profiles:
        return 1
    cap = profiles[-1].cluster_cap
    return (
        math.ceil(2 * n / cap)
        + envelope_center(n, profiles, genus)
        + envelope_boundary(n, profiles[:-1], genus)
    )


def envelope_boundary(n: int, profiles: Sequence[LevelProfile], genus: int) -> int:
    """Upper envelope for the total part-boundary size at the last level:
    contracting each part merges its boundary edges into a simple graph on
    (center + parts) nodes of the host's genus, so the total is below
    3*(center + parts) + 6*genus."""
    if not profiles:
        return 0
    return (
        3
        * (
            envelope_center(n, profiles, genus)
            + envelope_parts(n, profiles, genus)
        )
        + 6 * genus
    )


def envelope_part_size(profile: LevelProfile) -> int:
    """Hard cap on |V_i| + |neighbors(V_i)| for parts of this level: a part
    holds components totalling <= max(cluster, component) cap nodes, each
    contributing itself plus at most r neighbors."""
    return max(profile.cluster_cap, profile.comp_cap) * (1 + profile.r)


# -- checking ----------------------------------------------------------------


@dataclass
class CheckItem:
    """One verified property: hard items carry a witness on failure,
    envelope items carry the measured value and its bound."""

    name: str
    ok: bool
    hard: bool
    measured: int | None = None
    bound: int | None = None
    witness: tuple | None = None

    def __str__(self) -> str:
        status = "ok" if self.ok else "FAIL"
        extra = ""
        if self.measured is not None:
            extra = f" measured={self.measured} bound={self.bound}"
        if self.witness is not None:
            extra += f" witness={self.witness}"
        return f"{self.name}: {status}{extra}"


@dataclass
class SeparationReport:
    """Itemized result of check_separation."""

    items: list[CheckItem] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(it.ok for it in self.items)

    @property
    def hard_ok(self) -> bool:
        return all(it.ok for it in self.items if it.hard)

    def __getitem__(self, name: str) -> CheckItem:
        for it in self.items:
            if it.name == name:
                return it
        raise KeyError(name)

    def __str__(self) -> str:
        return "\n".join(str(it) for it in self.items)


def check_separation(
    sep: Separation, prev: Separation | None = None
) -> SeparationReport:
    """Verify a separation against its definition.

    Hard items (partition, edge isolation, part-size cap, well-formedness,
    and the three nesting properties when prev is given) must always hold;
    envelope items (center size, part count, total boundary) compare the
    measured quantity to the construction's envelope and are informational
    for callers that only require hard_ok.
    """
    host = sep.host
    n = host.n
    rep = SeparationReport()

    # well-formedness: shapes, sortedness, hook validity
    wf_witness = None
    if not (len(sep.parts) == len(sep.hooks) == len(sep.prev_part)):
        wf_witness = ("length mismatch",)
    elif sep.hooks[0] != -1 or sep.prev_part[0] != 0:
        wf_witness = ("center row",)
    else:
        center_set = set(sep.parts[0])
        for i, part in enumerate(sep.parts):
            if any(part[t] >= part[t + 1] for t in range(len(part) - 1)):
                wf_witness = ("unsorted part", i)
                break
            if i > 0 and not part:
                wf_witness = ("empty part", i)
                break
            if i > 0 and sep.hooks[i] != -1:
                h = sep.hooks[i]
                if h not in center_set:
                    wf_witness = ("hook outside center", i, h)
                    break
                pset = set(part)
                if not any(
                    host.head(d) in pset for d in host.darts_at(h)
                ):
                    wf_witness = ("hook not adjacent to part", i, h)
                    break
    rep.items.append(
        CheckItem("well-formed", wf_witness is None, True, witness=wf_witness)
    )
    if wf_witness is not None:
        return rep

    # S1: the parts partition the nodes
    owner = [-1] * n
    s1_witness = None
    for i, part in enumerate(sep.parts):
        for v in part:
            if not 0 <= v < n:
                s1_witness = ("node out of range", v, i)
                break
            if owner[v] >= 0:
                s1_witness = ("node in two parts", v, owner[v], i)
                break
            owner[v] = i
        if s1_witness:
            break
    if s1_witness is None:
        for v in range(n):
            if owner[v] < 0:
                s1_witness = ("node in no part", v)
                break
    rep.items.append(
        CheckItem("S1 partition", s1_witness is None, True, witness=s1_witness)
    )
    if s1_witness is not None:
        return rep

    # S2: no host edge between two distinct parts
    s2_witness = None
    for u, v in host.edges():
        pu, pv = owner[u], owner[v]
        if pu != pv and pu != 0 and pv != 0:
            s2_witness = (u, v, pu, pv)
            break
    rep.items.append(
        CheckItem("S2 edge isolation", s2_witness is None, True, witness=s2_witness)
    )

    profile = sep.profile
    genus = host.genus()

    # S4: part sizes (with boundary) under the hard cap
    s4_witness = None
    max_size = 0
    nbr_total = 0
    if profile is not None:
        cap = envelope_part_size(profile)
        for i in range(1, len(sep.parts)):
            size = len(sep.parts[i]) + len(sep.part_neighbors(i))
            nbr_total += size - len(sep.parts[i])
            if size > max_size:
                max_size = size
            if size > cap and s4_witness is None:
                s4_witness = (i, size, cap)
        rep.items.append(
            CheckItem(
                "S4 part size",
                s4_witness is None,
                True,
                measured=max_size,
                bound=cap,
                witness=s4_witness,
            )
        )

        # S3 and S5: envelope comparisons
        f0 = envelope_center(n, sep.profiles, genus)
        rep.items.append(
            CheckItem(
                "S3 center size", len(sep.center) <= f0, False,
                measured=len(sep.center), bound=f0,
            )
        )
        fp = envelope_parts(n, sep.profiles, genus)
        rep.items.append(
            CheckItem("S5 part count", sep.p <= fp, False, measured=sep.p, bound=fp)
        )
        fb = envelope_boundary(n, sep.profiles, genus)
        rep.items.append(
            CheckItem(
                "S5 total boundary", nbr_total <= fb, False,
                measured=nbr_total, bound=fb,
            )
        )

    if prev is not None:
        # R1: the center only grows
        r1_witness = None
        center_set = set(sep.center)
        for v in prev.center:
            if v not in center_set:
                r1_witness = (v,)
                break
        rep.items.append(
            CheckItem("R1 center growth", r1_witness is None, True, witness=r1_witness)
        )

        # R2: each part inside the previous-level part it declares
        r2_witness = None
        prev_of = prev.part_of()
        for i in range(1, len(sep.parts)):
            j = sep.prev_part[i]
            if not 1 <= j < len(prev.parts):
                r2_witness = (i, j, "bad index")
                break
            for v in sep.parts[i]:
                if prev_of[v] != j:
                    r2_witness = (i, v, j, prev_of[v])
                    break
            if r2_witness:
                break
        rep.items.append(
            CheckItem("R2 containment", r2_witness is None, True, witness=r2_witness)
        )

        # R3: parts of one previous-level part are contiguous
        r3_witness = None
        first_last: dict[int, tuple[int, int]] = {}
        for i in range(1, len(sep.parts)):
            j = sep.prev_part[i]
            lo, hi = first_last.get(j, (i, i))
            first_last[j] = (min(lo, i), max(hi, i))
        counts: dict[int, int] = {}
        for i in range(1, len(sep.parts)):
            counts[sep.prev_part[i]] = counts.get(sep.prev_part[i], 0) + 1
        for j, (lo, hi) in first_last.items():
            if hi - lo + 1 != counts[j]:
                # produce an explicit violating triple (i < mid < k)
                mid = next(
                    m for m in range(lo + 1, hi) if sep.prev_part[m] != j
                )
                r3_witness = (lo, mid, hi)
                break
        rep.items.append(
            CheckItem("R3 contiguity", r3_witness is None, True, witness=r3_witness)
        )

    return rep
