"""The check of a separation against its definition, and the size envelopes
of the construction: the test oracle for ``plancode.separation``.

``check_separation`` itemizes what a separation level must satisfy: hard
items (well-formedness, partition, edge isolation, the part-size cap, and
the nesting properties R1-R3 against the previous level) always hold, and
envelope items compare the center size, part count and total boundary with
the bounds below, which the construction guarantees.  The codec does not
run this check; it checks only what it relies on as it builds a level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from plancode.separation import LevelProfile, Separation

# Slack constant in the center-size envelope f0 (see envelope_center): it
# absorbs the small-n regime where the per-level terms round up.
ENVELOPE_C = 8.0


# -- size envelopes ----------------------------------------------------------
#
# The envelopes below are the bounds the construction itself guarantees; the
# center/parts/boundary checks report measured values against them. They are
# deliberately loose (and vacuous, >= n, at levels whose caps are tiny or on
# positive-genus hosts): honesty over flattery.


def envelope_cut(n: int, cap: int) -> int:
    """Nodes the decomposition cuts can remove while capping components.

    Each split of an m-node piece removes <= 4*sqrt(m); pieces split at one
    recursion depth are disjoint and each exceed cap, so per depth the
    removals total <= 4*n/sqrt(cap), over <= log_1.5(n/cap) depths
    (every side loses at least a third of its piece).
    """
    if n <= cap:
        return 0
    depths = max(1.0, math.log(max(n / cap, 2.0), 1.5))
    return math.ceil(4.0 * n / math.sqrt(cap) * depths)


def envelope_center(n: int, profiles: Sequence[LevelProfile], genus: int) -> int:
    """Upper envelope for the center size after the given levels."""
    total = n if genus > 0 else 0
    for prof in profiles:
        total += math.ceil((6 * n + 12 * genus) / prof.r)
        total += envelope_cut(n, prof.cap)
    return min(n, total) + math.ceil(ENVELOPE_C * math.sqrt(n))


def envelope_parts(n: int, profiles: Sequence[LevelProfile], genus: int) -> int:
    """Upper envelope for the part count at the last given level.

    Consecutive parts packed from one hook visit exceed the cap
    pairwise, so non-final parts number <= 2n/cap; there is at most one
    final part per (hook, previous-level part) visit, and those visits are
    bounded by the center size plus the previous level's total boundary.
    """
    if not profiles:
        return 1
    cap = profiles[-1].cap
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
    holds components totalling <= cap nodes, each contributing itself plus
    at most r neighbors."""
    return profile.cap * (1 + profile.r)


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

    profile = sep.profiles[-1] if sep.profiles else None
    genus = host.genus()

    # S4: part sizes (with boundary) under the hard cap
    s4_witness = None
    max_size = 0
    nbr_total = 0
    if profile is not None:
        cap = envelope_part_size(profile)
        for i in range(1, len(sep.parts)):
            size = len(sep.parts[i]) + len(host.neighbors_of_set(sep.parts[i]))
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
