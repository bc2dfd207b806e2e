"""Completions of part graphs into class members, and the fixes that undo
them: linking components, apply_fix."""

import random

import pytest

from plancode.embgraph import (
    EmbeddedGraph,
    canonical_labeling,
    labeled_equal,
)
from plancode.errors import CodecError
from plancode.patcher import (
    EMPTY_FIX,
    Fix,
    apply_fix,
    complete,
    complete_connected,
)

from oracles import (
    OCTAHEDRON,
    part_graph,
    random_planar_embedded,
    rot_is_plane_connected,
)


# -- the Fix container -----------------------------------------------------------


def test_fix_rejects_unnormalized():
    with pytest.raises(ValueError):
        Fix((2, 1))
    with pytest.raises(ValueError):
        Fix((1, 1))
    with pytest.raises(ValueError):
        Fix((), ((2, 1),))
    with pytest.raises(ValueError):
        Fix((), ((1, 1),))
    with pytest.raises(ValueError):
        Fix((), ((0, 1), (0, 1)))
    with pytest.raises(ValueError):
        Fix((), ((1, 2), (0, 3)))
    with pytest.raises(ValueError):
        Fix((3,), ((2, 3),))


def test_fix_size_and_empty():
    assert EMPTY_FIX.size == 0
    f = Fix((4, 7), ((0, 2), (1, 3)))
    assert f.size == 4


def test_fix_relabeled_renormalizes():
    f = Fix((4, 7), ((0, 2), (1, 3)))
    perm = [5, 3, 1, 0, 2, 6, 7, 4]
    g = f.relabeled(perm)
    assert g.added_nodes == (2, 4)
    assert g.deleted_edges == ((0, 3), (1, 5))
    assert g.size == f.size


# -- apply_fix -------------------------------------------------------------------


def test_apply_fix_deletes_and_compacts():
    # path 0-1-2-3 with leaf 4 at node 1; deleting node 1 and edge (2, 3)
    # leaves four isolated nodes under compacted labels
    g = EmbeddedGraph.from_rotations([[1], [0, 2, 4], [1, 3], [2], [1]])
    out = apply_fix(g, Fix((1,), ((2, 3),)))
    assert out.to_rotations() == [[], [], [], []]


def test_apply_fix_restricts_rotations():
    g = EmbeddedGraph.from_rotations(OCTAHEDRON)
    out = apply_fix(g, Fix((5,), ((1, 2),)))
    assert out.to_rotations() == [[1, 2, 3, 4], [0, 4], [0, 3], [0, 2, 4], [0, 3, 1]]


def test_apply_fix_rejects_mismatches():
    g = EmbeddedGraph.from_rotations([[1], [0, 2], [1]])
    with pytest.raises(CodecError):
        apply_fix(g, Fix((3,), ()))
    with pytest.raises(CodecError):
        apply_fix(g, Fix((), ((0, 3),)))
    with pytest.raises(CodecError):
        apply_fix(g, Fix((), ((0, 2),)))
    with pytest.raises(CodecError):
        apply_fix(g, Fix((0, 1, 2), ()))


# -- linking components ------------------------------------------------------------


def test_connect_already_connected_is_identity():
    g = EmbeddedGraph.from_rotations([[1], [0, 2], [1]])
    h, fix = complete_connected(g)
    assert h is g
    assert fix == EMPTY_FIX


def test_connect_links_at_first_corners():
    # triangle + edge + isolated node; every later component joins node 0
    # at its first stored corner, newest link first
    g = EmbeddedGraph.from_rotations([[1, 2], [2, 0], [0, 1], [4], [3], []])
    h, fix = complete_connected(g)
    assert fix == Fix((), ((0, 3), (0, 5)))
    assert h.to_rotations() == [[1, 2, 5, 3], [0, 2], [0, 1], [0, 4], [3], [0]]
    assert rot_is_plane_connected(h.to_rotations())
    assert labeled_equal(apply_fix(h, fix), g)


def test_connect_random_parts_roundtrip():
    for seed in range(6):
        rng = random.Random(seed)
        host = random_planar_embedded(30, 0.4, rng)
        pg = part_graph(host, rng.sample(range(host.n), 8))
        h, fix = complete_connected(pg.graph)
        assert rot_is_plane_connected(h.to_rotations())
        assert labeled_equal(apply_fix(h, fix), pg.graph)
        again, fix2 = complete_connected(pg.graph)
        assert fix2 == fix
        assert labeled_equal(again, h)


def test_connect_canonical_member_roundtrip():
    # completion -> canonical member + relabeled fix, as the codec hands it over
    linked = 0
    for seed in range(6):
        rng = random.Random(300 + seed)
        host = random_planar_embedded(30, 0.4, rng)
        pg = part_graph(host, rng.sample(range(host.n), 8))
        h, fix = complete_connected(pg.graph)
        lab = canonical_labeling(h)
        member = h.relabel(lab)
        got = apply_fix(member, fix.relabeled(lab))
        assert labeled_equal(got, pg.graph.relabel(lab))
        linked += fix.size > 0
    assert linked


# -- dispatch ---------------------------------------------------------------------


def test_complete_dispatch():
    g = EmbeddedGraph.from_rotations([[1], [0]])
    h, fix = complete(g, "none")
    assert h is g
    assert fix == EMPTY_FIX
    with pytest.raises(ValueError):
        complete(g, "bogus")
