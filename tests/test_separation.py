import math
import random
from collections import Counter

import pytest

import plancode.planar_sep as planar_sep_mod
import plancode.separation as separation_mod
from plancode.embgraph import EmbeddedGraph
from plancode.errors import Disconnected
from plancode.separation import (
    LevelProfile,
    Scratch,
    Separation,
    build_separations,
    ell,
    fragment,
    level_schedule,
    refine,
    trivial_separation,
)

from oracles import (
    FINE_PROFILE,
    K5_TORUS,
    K7_TORUS,
    bounded_degree_tree_rotations,
    coarse_ranges,
    grid_rotations,
    interleaved_union,
    random_planar_embedded,
    torus_grid_rotations,
    triangulate,
    two_level_chain,
    wheel_with_tails,
)
from sep_check import (
    check_separation,
    envelope_boundary,
    envelope_center,
    envelope_cut,
    envelope_part_size,
    envelope_parts,
)


def chain_reports(host, chain=build_separations):
    seps = chain(host)
    return seps, [
        check_separation(seps[i], seps[i - 1]) for i in range(1, len(seps))
    ]


def assert_all_hard_ok(reports):
    for rep in reports:
        assert rep.hard_ok, str(rep)


# -- iterated log -----------------------------------------------------------


def test_ell_examples():
    assert ell(16, 0) == 16.0
    assert ell(16, 1) == 4.0
    assert ell(16, 2) == 2.0
    assert ell(16, 3) == 1.0
    assert ell(16, 10) == 1.0
    assert ell(1, 5) == 1.0
    assert ell(2**65536, 2) == 16.0


def test_ell_monotone_in_n():
    vals = [ell(n, 2) for n in (4, 16, 256, 10**6)]
    assert vals == sorted(vals)


def test_ell_rejects_bad_args():
    with pytest.raises(ValueError):
        ell(0, 1)
    with pytest.raises(ValueError):
        ell(4, -1)


# -- schedule ----------------------------------------------------------------


def test_level_schedule_thresholds():
    # ceil(1.5 ell(n, 2)^4) is n or more from 6 to 72 nodes, and
    # ceil(1.5 ell(n, 1)^4) first falls below n at 122,395.
    assert all(level_schedule(n) == [] for n in range(6, 73))
    assert [len(level_schedule(n)) for n in (73, 1000, 122_394)] == [1, 1, 1]
    assert [len(level_schedule(n)) for n in (122_395, 10**6, 10**9)] == [2, 2, 2]
    assert level_schedule(6400) == [LevelProfile(r=34, cap=270)]


@pytest.mark.parametrize("n", [73, 1000, 6400, 122_395, 10**6])
def test_level_schedule_profiles(n):
    # The finest level is the k = 2 iterated-log level, a coarser one the
    # k = 1 level: r = ceil(2.5 lam^2) and cap ceil(1.5 lam^4) at
    # lam = ell(n, k).
    sched = level_schedule(n)
    for k, prof in zip(range(3 - len(sched), 3), sched):
        lam = ell(n, k)
        assert prof.r == math.ceil(2.5 * lam * lam)
        assert prof.cap == math.ceil(1.5 * lam**4) < n


def test_level_schedule_never_shrinks_as_n_grows():
    # Per level, counted from the finest, r and the cap never decrease as
    # the host grows, and a level appears only once its cap binds.
    ns = sorted({*range(1, 3000), *(int(1.005**e) for e in range(1600, 6000))})
    last = {}
    for n in ns:
        for depth, prof in enumerate(reversed(level_schedule(n))):
            if depth in last:
                assert prof.r >= last[depth].r
                assert prof.cap >= last[depth].cap
            last[depth] = prof
    assert sorted(last) == [0, 1]


def test_level_schedule_caps_decrease():
    for n in (50, 10**3, 10**4, 10**5, 2**17, 10**7):
        caps = [p.cap for p in level_schedule(n)]
        assert caps == sorted(caps, reverse=True)
        assert all(c < n for c in caps) or n <= 2


# -- trivial separation -------------------------------------------------------


def test_trivial_separation_shape():
    g = EmbeddedGraph.from_rotations(grid_rotations(3, 3))
    s = trivial_separation(g)
    assert s.level == 0
    assert s.p == 1
    assert s.center == []
    assert s.parts[1] == list(range(9))
    assert s.hooks == [-1, -1]
    assert s.prev_part == [0, 0]
    assert s.profiles == ()


# -- fragment ----------------------------------------------------------------


def fan_host():
    """Hub 0 joined to three pendant paths 1-2-3, 4-5, 6-7 (a planar fan)."""
    rots = [
        [1, 2, 3, 4, 5, 6, 7],  # hub
        [2, 0],
        [1, 3, 0],
        [2, 0],
        [5, 0],
        [4, 0],
        [7, 0],
        [6, 0],
    ]
    g = EmbeddedGraph.from_rotations(rots)
    assert g.genus() == 0
    return g


def test_fragment_degree_filter_and_cut():
    g = fan_host()
    prof = LevelProfile(r=6, cap=4)
    center, comps = fragment(g, list(range(g.n)), prof, set())
    assert center == {0}  # hub degree 7 > 6; everything else fits
    assert comps == [[1, 2, 3], [4, 5], [6, 7]]

    # cap 2 forces cuts inside the 3-node path
    prof2 = LevelProfile(r=6, cap=2)
    center2, comps2 = fragment(g, list(range(g.n)), prof2, set())
    assert 0 in center2
    rest = [v for v in range(g.n) if v not in center2]
    sizes = component_sizes(g, rest)
    assert all(s <= 2 for s in sizes)
    assert comps2 == g.components(center2)


def test_fragment_keeps_previous_center():
    g = fan_host()
    prof = LevelProfile(r=100, cap=100)
    center, comps = fragment(g, list(range(g.n)), prof, {3, 5})
    assert {3, 5} <= center
    assert comps == g.components(center)


def component_sizes(g, nodes):
    nodes = set(nodes)
    sizes = []
    seen = set()
    for s in nodes:
        if s in seen:
            continue
        comp = {s}
        seen.add(s)
        stack = [s]
        while stack:
            u = stack.pop()
            for w in g.neighbors(u):
                if w in nodes and w not in seen:
                    seen.add(w)
                    comp.add(w)
                    stack.append(w)
        sizes.append(len(comp))
    return sizes


# -- clustering (refine) ------------------------------------------------------
#
# One cap bounds a level's components and its parts, so no component is
# larger than the part it starts: there is no case of an oversized first
# component granted a part of its own.


def test_refine_greedy_clustering_scenario():
    """Hub enters the center by degree; its three path components are packed
    in rotation order: [3] alone (next doesn't fit), then [2, 2]."""
    g = fan_host()
    prof = LevelProfile(r=6, cap=4)
    sep = refine(g, list(range(g.n)), trivial_separation(g), prof, set())
    assert sep.center == [0]
    assert sep.parts[1:] == [[1, 2, 3], [4, 5, 6, 7]]
    assert sep.hooks == [-1, 0, 0]
    assert sep.prev_part == [0, 1, 1]
    rep = check_separation(sep, trivial_separation(g))
    assert rep.hard_ok, str(rep)


def test_refine_hookless_when_center_empty():
    g = EmbeddedGraph.from_rotations([[1], [0]])
    sep = refine(g, list(range(g.n)), trivial_separation(g), FINE_PROFILE, set())
    assert sep.center == []
    assert sep.parts[1:] == [[0, 1]]
    assert sep.hooks == [-1, -1]
    rep = check_separation(sep, trivial_separation(g))
    assert rep.hard_ok, str(rep)


def test_refine_rejects_foreign_prev():
    g1 = fan_host()
    g2 = fan_host()
    with pytest.raises(ValueError):
        refine(g1, list(range(g1.n)), trivial_separation(g2), FINE_PROFILE, set())


def test_build_separations_rejects_disconnected():
    g = EmbeddedGraph.from_rotations([[1], [0], [3], [2]])
    with pytest.raises(Disconnected):
        build_separations(g)
    # Two 20-node paths: no level binds at 40 nodes, so no refine can prove
    # the host disconnected, and build_separations searches it itself.
    path = [[1]] + [[v - 1, v + 1] for v in range(1, 19)] + [[18]]
    g = EmbeddedGraph.from_rotations(path + [[v + 20 for v in row] for row in path])
    assert not level_schedule(g.n)
    with pytest.raises(Disconnected):
        build_separations(g)


def test_component_chains_built_in_place_are_those_of_their_induced_copies(monkeypatch):
    # A torus grid, a sparse plane graph and a tree side by side, their
    # labels interleaved.  Each component's chain, built on the host with
    # one Scratch for all of them, is the chain of its induced copy with
    # every node mapped to the host.  The handle-cutting nodes are found
    # once for the host, and each chain takes its component's.
    rng = random.Random(9)
    parts = [
        torus_grid_rotations(9),
        random_planar_embedded(200, 3 / 199, rng).to_rotations(),
        bounded_degree_tree_rotations(100, rng),
        bounded_degree_tree_rotations(10, rng),
        bounded_degree_tree_rotations(10, rng),
        [[]],
    ]
    g = interleaved_union(parts, rng)
    calls = []
    planarize = separation_mod.planarize
    monkeypatch.setattr(separation_mod, "planarize", lambda h: calls.append(h) or planarize(h))
    scratch = Scratch(g)
    comps = g.components()
    assert sorted(map(len, comps)) == [1, 10, 10, 81, 100, 200]
    for nodes in comps:
        sub, ids = g.induced(nodes)
        got = build_separations(g, nodes, None, scratch)
        want = build_separations(sub)
        assert len(got) == len(want) == 1 + (len(nodes) > 72)
        for a, b in zip(got, want):
            assert a.host is g
            assert a.parts == [[ids[v] for v in part] for part in b.parts]
            assert a.hooks == [ids[v] if v >= 0 else v for v in b.hooks]
            assert a.prev_part == b.prev_part
    assert sum(h is g for h in calls) == 1
    (torus,) = [c for c in comps if len(c) == 81]
    assert scratch.handle_cut and scratch.handle_cut <= set(torus)
    # Two components are not one: with no level (20 nodes), the nodes are
    # searched, and with one, the first refine finds them apart.
    small = [c for c in comps if len(c) == 10]
    assert not level_schedule(20)
    with pytest.raises(Disconnected):
        build_separations(g, sorted(small[0] + small[1]), 0, scratch)
    big = [c for c in comps if len(c) > 72]
    with pytest.raises(Disconnected):
        build_separations(g, sorted(big[0] + big[1]), 0, scratch)


def test_build_separations_rejects_disconnected_hosts_whose_components_hold_center_nodes(
    fine_schedule,
):
    # Two stacked triangulations side by side: each has nodes above the
    # degree rule, so both hold center nodes, every component of the host
    # minus the center touches one, and no component is left over for
    # refine's leftovers check.  The union-find over the components and the
    # center's darts still finds two sets.
    rng = random.Random(400)
    a, b = (random_planar_embedded(400, 1.0, rng).to_rotations() for _ in range(2))
    g = EmbeddedGraph.from_rotations(a + [[v + 400 for v in row] for row in b])
    (profile,) = separation_mod.level_schedule(g.n)
    center, comps = fragment(g, list(range(g.n)), profile, set())
    assert min(center) < 400 <= max(center)
    assert all(g.neighbors_of_set(c) for c in comps)
    with pytest.raises(Disconnected, match="must be connected"):
        build_separations(g)


# -- full chains on random hosts ---------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_chain_on_random_triangulation(seed):
    rng = random.Random(seed)
    host = random_planar_embedded(180 + 40 * seed, 1.0, rng)
    for chain in (build_separations, two_level_chain):
        seps, reports = chain_reports(host, chain)
        assert_all_hard_ok(reports)
    assert len(seps) == 3 and seps[-1].profiles[-1] == FINE_PROFILE
    # terminal level: every part is small and the partition is complete
    last = seps[-1]
    assert all(len(p) <= FINE_PROFILE.cap for p in last.parts[1:])
    covered = sum(len(p) for p in last.parts)
    assert covered == host.n


@pytest.mark.parametrize("seed", [5, 6])
def test_chain_on_random_sparse_planar(seed):
    # The codec separates a component on its own rotations, with no chords;
    # its triangulation is checked alongside.
    rng = random.Random(seed)
    g = random_planar_embedded(150, 0.02, rng)
    for host in (g, triangulate(g)):
        for chain in (build_separations, two_level_chain):
            seps, reports = chain_reports(host, chain)
            assert len(seps) > 1
            assert_all_hard_ok(reports)


def test_chain_on_grid_and_wheel():
    tree = bounded_degree_tree_rotations(300, random.Random(7))
    for rots in (grid_rotations(9, 11), wheel_with_tails(80, 10), tree):
        host = EmbeddedGraph.from_rotations(rots)
        for chain in (build_separations, two_level_chain):
            seps, reports = chain_reports(host, chain)
            assert len(seps) > 1
            assert_all_hard_ok(reports)


def test_chain_on_torus_fixtures():
    for rots in (K5_TORUS, K7_TORUS):
        host = EmbeddedGraph.from_rotations(rots)
        assert host.genus() > 0
        seps, reports = chain_reports(host)
        assert_all_hard_ok(reports)
        # handle-cutting nodes must be in every center
        from plancode.planar_sep import planarize

        cut = planarize(host)
        for sep in seps[1:]:
            assert cut <= set(sep.center)


def test_chain_determinism():
    rng1, rng2 = random.Random(42), random.Random(42)
    h1 = random_planar_embedded(200, 1.0, rng1)
    h2 = random_planar_embedded(200, 1.0, rng2)
    s1 = build_separations(h1)
    s2 = build_separations(h2)
    assert len(s1) == len(s2)
    for a, b in zip(s1, s2):
        assert a.parts == b.parts
        assert a.hooks == b.hooks
        assert a.prev_part == b.prev_part


def test_build_separations_copies_no_subgraph(monkeypatch):
    # The separator recursion runs on the host itself: no induced copy per
    # piece, and per cycle phase one graph, the contraction H, built once
    # by from_rotations from its rows.  H is triangulated in place:
    # it is not copied, and not searched for components.  Nothing searches
    # the host for components: each level's components come from
    # decompose_cut, the first level's refine proves the host connected from
    # them, and the genus count of planarize (no genus is passed here) comes
    # from euler's face sweep.
    rng = random.Random(2000)
    tree = EmbeddedGraph.from_rotations(bounded_degree_tree_rotations(2000, rng))
    perm = list(range(tree.n))
    rng.shuffle(perm)
    host = triangulate(tree.relabel(perm))
    calls = Counter()

    def count(owner, name, wrap=lambda f: f):
        orig = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return orig(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrap(counted))

    count(EmbeddedGraph, "induced")
    count(EmbeddedGraph, "from_rotations", staticmethod)
    count(EmbeddedGraph, "copy")
    count(EmbeddedGraph, "component_ids")
    count(planar_sep_mod, "_contract_inner")
    seps = build_separations(host)
    assert calls["_contract_inner"] >= 5
    assert calls["induced"] == 0
    assert calls["from_rotations"] == calls["_contract_inner"]
    assert calls["copy"] == 0
    assert len(seps) == 2
    assert calls["component_ids"] == 0


def test_coarse_ranges_cover_contiguously():
    rng = random.Random(9)
    host = random_planar_embedded(250, 1.0, rng)
    seps = build_separations(host)
    for sep in seps[1:]:
        runs = coarse_ranges(sep)
        seen_prev = set()
        pos = 1
        for j, lo, hi in runs:
            assert lo == pos and hi > lo
            assert j not in seen_prev  # contiguity: one run per coarse part
            seen_prev.add(j)
            pos = hi
        assert pos == len(sep.parts)


def test_part_sizes_respect_hard_envelope():
    rng = random.Random(11)
    host = random_planar_embedded(300, 1.0, rng)
    seps = build_separations(host)
    for sep in seps[1:]:
        cap = envelope_part_size(sep.profiles[-1])
        for i in range(1, len(sep.parts)):
            size = len(sep.parts[i]) + len(host.neighbors_of_set(sep.parts[i]))
            assert size <= cap


# -- envelopes ----------------------------------------------------------------


def test_envelope_cut_zero_when_pieces_fit():
    assert envelope_cut(100, 100) == 0
    assert envelope_cut(5, 10) == 0
    assert envelope_cut(1000, 50) > 0


def test_envelopes_positive_and_finite():
    profs = level_schedule(10**4)
    f0 = envelope_center(10**4, profs, 0)
    fp = envelope_parts(10**4, profs, 0)
    fb = envelope_boundary(10**4, profs, 0)
    assert 0 < f0 <= 10**4 + math.ceil(8 * math.sqrt(10**4))
    assert fp > 0 and fb > 0


def test_envelope_center_vacuous_on_positive_genus():
    profs = level_schedule(500)
    assert envelope_center(500, profs, 1) == 500 + math.ceil(8 * math.sqrt(500))


def test_envelope_items_reported_in_checks():
    rng = random.Random(13)
    host = random_planar_embedded(400, 1.0, rng)
    seps, reports = chain_reports(host)
    for rep in reports:
        names = [it.name for it in rep.items]
        assert "S3 center size" in names
        assert "S5 part count" in names
        assert "S5 total boundary" in names
        for it in rep.items:
            if not it.hard:
                assert it.measured is not None and it.bound is not None
                assert it.ok, str(it)


# -- mutation detection --------------------------------------------------------


def valid_sep():
    rng = random.Random(17)
    host = random_planar_embedded(120, 1.0, rng)
    seps = two_level_chain(host)
    return seps[-2], seps[-1]  # (prev, sep) with nontrivial structure


def test_check_catches_duplicate_node():
    prev, sep = valid_sep()
    v = sep.parts[2][0]
    sep.parts[1] = sorted(sep.parts[1] + [v])
    rep = check_separation(sep, prev)
    item = rep["S1 partition"]
    assert not item.ok and item.witness[0] == "node in two parts"


def test_check_catches_missing_node():
    prev, sep = valid_sep()
    hooks = set(sep.hooks)
    v = next(u for u in sep.parts[0] if u not in hooks)
    sep.parts[0] = [u for u in sep.parts[0] if u != v]
    rep = check_separation(sep, prev)
    item = rep["S1 partition"]
    assert not item.ok and item.witness == ("node in no part", v)


def test_check_catches_cross_part_edge():
    prev, sep = valid_sep()
    # move a center node with neighbors in two parts into one of them
    part_of = sep.part_of()
    hooks = set(sep.hooks)
    for v in list(sep.center):
        if v in hooks:
            continue
        touched = {part_of[w] for w in sep.host.neighbors(v)} - {0}
        if len(touched) >= 2:
            target = min(touched)
            sep.parts[0] = [u for u in sep.parts[0] if u != v]
            sep.parts[target] = sorted(sep.parts[target] + [v])
            break
    else:
        pytest.skip("no center node bridging two parts in fixture")
    rep = check_separation(sep, prev)
    assert not rep["S2 edge isolation"].ok


def test_check_catches_r1_shrunken_center():
    prev, sep = valid_sep()
    # claim a node for the coarse center that the fine center doesn't have
    v = next(u for u in sep.parts[1] if u not in set(sep.center))
    prev.parts[0] = sorted(prev.parts[0] + [v])
    rep = check_separation(sep, prev)
    assert not rep["R1 center growth"].ok
    assert rep["R1 center growth"].witness == (v,)


def test_check_catches_r3_reorder():
    prev, sep = valid_sep()
    runs = coarse_ranges(sep)
    if len(runs) < 2:
        pytest.skip("needs two coarse runs")
    # find a run of length >= 2 followed by another run, then swap across
    # the boundary to create a j ... j' ... j sandwich
    swap_at = None
    for (j1, lo1, hi1), (j2, lo2, hi2) in zip(runs, runs[1:]):
        if hi1 - lo1 >= 2:
            swap_at = (hi1 - 1, lo2)
            break
        if hi2 - lo2 >= 2:
            swap_at = (hi1 - 1, lo2)
            break
    if swap_at is None:
        pytest.skip("no run long enough in fixture")
    a, b = swap_at
    for field in (sep.parts, sep.hooks, sep.prev_part):
        field[a], field[b] = field[b], field[a]
    rep = check_separation(sep, prev)
    item = rep["R3 contiguity"]
    assert not item.ok
    i, m, k = item.witness
    assert i < m < k
    assert sep.prev_part[i] == sep.prev_part[k] != sep.prev_part[m]


def test_check_catches_r2_wrong_parent():
    prev, sep = valid_sep()
    if sep.p < 1:
        pytest.skip("fixture too small")
    sep.prev_part[1] = sep.prev_part[1] % (len(prev.parts) - 1) + 1 \
        if len(prev.parts) > 2 else sep.prev_part[1]
    if len(prev.parts) <= 2:
        # single coarse part: point at an out-of-range index instead
        sep.prev_part[1] = 99
    rep = check_separation(sep, prev)
    assert not rep["R2 containment"].ok


def test_check_catches_oversized_part():
    prev, sep = valid_sep()
    tiny = LevelProfile(r=1, cap=1)
    sep.profiles = sep.profiles[:-1] + (tiny,)
    rep = check_separation(sep, prev)
    assert not rep["S4 part size"].ok


def test_check_catches_bad_hook():
    prev, sep = valid_sep()
    if sep.p < 1 or not sep.center:
        pytest.skip("fixture too small")
    # a hook that is not adjacent to its part
    pset = set(sep.parts[1])
    far = next(
        (
            v
            for v in sep.center
            if not any(w in pset for w in sep.host.neighbors(v))
        ),
        None,
    )
    if far is None:
        pytest.skip("every center node touches part 1")
    sep.hooks[1] = far
    rep = check_separation(sep, prev)
    assert not rep["well-formed"].ok


# -- scale sanity --------------------------------------------------------------


def test_chain_medium_scale_all_checks():
    rng = random.Random(23)
    host = random_planar_embedded(1500, 1.0, rng)
    seps, reports = chain_reports(host)
    assert_all_hard_ok(reports)
    for rep in reports:
        for it in rep.items:
            assert it.ok, str(it)
    # the finest level covers everything with parts within its caps
    last = seps[-1]
    assert max(len(p) for p in last.parts[1:]) <= last.profiles[-1].cap
    # one level finer still passes every hard check
    assert_all_hard_ok(chain_reports(host, two_level_chain)[1])
