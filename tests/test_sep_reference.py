"""The one-host separator recursion against the copy-based reference.

``decompose_cut`` and ``planar_separator`` work on sorted node lists of one
host graph; ``sep_reference`` runs the same recursion on induced copies.
Every cut, every separator, every contraction H of a cycle phase and every
cycle found in it must be the same.
"""

import random
from collections import Counter

import pytest

import plancode.planar_sep as planar_sep
import sep_reference as ref
from oracles import (
    bounded_degree_tree_rotations,
    grid_rotations,
    random_planar_embedded,
    random_tree_rotations,
    wheel_with_tail,
    wheel_with_tails,
)
from plancode.embgraph import EmbeddedGraph, triangulate
from plancode.planar_sep import decompose_cut
from plancode.separation import LevelProfile, fragment
from sep_split import planar_separator

LIMITS = (1, 2, 12, 143)


def _shuffled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel(perm)


def _hosts():
    rng = random.Random(2538)
    tree = EmbeddedGraph.from_rotations(bounded_degree_tree_rotations(500, rng))
    grid = EmbeddedGraph.from_rotations(grid_rotations(13, 17))
    return {
        "triangulated-tree": triangulate(_shuffled(tree, rng)),
        "stacked": random_planar_embedded(300, 1.0, rng),
        "thinned": random_planar_embedded(300, 0.014, rng),
        # a contraction of 6 inner and 84 middle nodes whose tree walk
        # enters a child's darts first, where it keeps a different dart of
        # a parallel pair than a walk that skips them would
        "sparse": random_planar_embedded(300, 3 / 299, random.Random(10)),
        "grid": grid,
        "triangulated-grid": triangulate(_shuffled(grid, rng)),
        "wheel-with-tails": _shuffled(
            EmbeddedGraph.from_rotations(wheel_with_tails(60, 8)), rng
        ),
        "wheel-with-tail": EmbeddedGraph.from_rotations(wheel_with_tail(40, 12)),
        # trees take no cycle phase: planar_separator cuts them at their
        # centroid, decompose_cut bottom up
        "tree": tree,
        "recursive-tree": EmbeddedGraph.from_rotations(random_tree_rotations(300, rng)),
    }


HOSTS = _hosts()


def _rest(host, r):
    """Nodes of degree <= r, as ``fragment`` leaves them to decompose_cut."""
    return [v for v in range(host.n) if host.degree(v) <= r]


@pytest.fixture
def checked_cycle_phases(monkeypatch):
    """Checks every cycle phase's contraction H against the reference's,
    dart by dart, and its cycle's node set against the reference's search,
    and counts the phases and the chosen cycles through and around the
    supernode, node 0."""
    count = Counter()
    contract = planar_sep._contract_inner
    balanced = planar_sep._balanced_cycle

    def checked_contract(host, inner, middle, st):
        H = contract(host, inner, middle, st)
        want, ids = ref.contract_inner(host, set(inner), set(middle))
        assert ids[1:] == middle
        assert (H.n, H.node_of, H.nxt, H.first) == (
            want.n, want.node_of, want.nxt, want.first,
        )
        count["phases"] += 1
        return H

    def checked_balanced(H):
        want = ref.balanced_cycle(H)  # before H is triangulated in place
        got = balanced(H)
        assert got == want
        count["through node 0" if 0 in got else "around node 0"] += 1
        return got

    monkeypatch.setattr(planar_sep, "_contract_inner", checked_contract)
    monkeypatch.setattr(planar_sep, "_balanced_cycle", checked_balanced)
    return count


@pytest.mark.parametrize("name", sorted(HOSTS))
def test_planar_separator_matches_reference(name, checked_cycle_phases):
    host = HOSTS[name]
    assert planar_separator(host) == ref.planar_separator(host)


@pytest.mark.parametrize("name", sorted(HOSTS))
def test_decompose_cut_matches_reference_on_whole_hosts(name, checked_cycle_phases):
    host = HOSTS[name]
    for limit in LIMITS:
        assert decompose_cut(host, range(host.n), limit)[0] == ref.decompose_cut(host, limit)


@pytest.mark.parametrize("name", sorted(HOSTS))
def test_decompose_cut_matches_reference_on_node_subsets(name, checked_cycle_phases):
    host = HOSTS[name]
    rng = random.Random(name)
    subsets = [
        _rest(host, 6),
        _rest(host, 12),
        sorted(rng.sample(range(host.n), host.n * 4 // 5)),
    ]
    for nodes in subsets:
        sub, ids = host.induced(nodes)
        for limit in LIMITS:
            want = {ids[v] for v in ref.decompose_cut(sub, limit)}
            assert decompose_cut(host, nodes, limit)[0] == want


@pytest.mark.parametrize("name", sorted(HOSTS))
def test_decompose_cut_returns_the_components_its_cut_leaves(name):
    # refine clusters the components decompose_cut returns instead of
    # searching the host for them: they must be exactly the components of
    # the host minus the center, as EmbeddedGraph.components orders them.
    host = HOSTS[name]
    rng = random.Random(name)
    subsets = [
        list(range(host.n)),
        _rest(host, 6),
        _rest(host, 12),
        sorted(rng.sample(range(host.n), host.n * 4 // 5)),
    ]
    for nodes in subsets:
        outside = set(range(host.n)).difference(nodes)
        for limit in LIMITS:
            cut, comps = decompose_cut(host, nodes, limit)
            assert comps == host.components(outside | cut)
    for r in (6, 12, 10**6):
        for cap in LIMITS:
            profile = LevelProfile(r=r, cap=cap)
            center, comps = fragment(host, list(range(host.n)), profile, set())
            assert comps == host.components(center)


def test_cycle_phases_are_compared(checked_cycle_phases):
    # the shapes above reach the cycle phase; without it the H comparison
    # would check nothing
    for name in ("triangulated-tree", "wheel-with-tails", "triangulated-grid"):
        host = HOSTS[name]
        decompose_cut(host, range(host.n), 12)
    assert checked_cycle_phases["phases"] >= 3


def test_chosen_cycles_pass_through_and_around_the_supernode(checked_cycle_phases):
    # the supernode weighs nothing, so a cycle's weight on it depends on
    # whether its top is node 0: both kinds are compared with the reference
    for host in HOSTS.values():
        planar_separator(host)
        for limit in LIMITS:
            decompose_cut(host, range(host.n), limit)
    assert checked_cycle_phases["through node 0"] > 0
    assert checked_cycle_phases["around node 0"] > 0
