"""Completions of part graphs into class members, and the fixes that undo
them: linking components, starring faces into triangulations, apply_fix."""

import random

import pytest

from plancode.constants import C_FIX
from plancode.embgraph import (
    EmbeddedGraph,
    canonical_labeling,
    labeled_equal,
    triangulate,
)
from plancode.errors import ChecksFailed, CodecError
from plancode.patcher import (
    EMPTY_FIX,
    Fix,
    apply_fix,
    complete,
    complete_connected,
    complete_triangulation,
)
from plancode.table import CLASSES

from oracles import (
    OCTAHEDRON,
    random_planar_embedded,
    random_tree_rotations,
    rot_is_plane_connected,
    rot_is_plane_triangulation,
)


def _tri_host(n, seed, p=0.5):
    rng = random.Random(seed)
    return triangulate(random_planar_embedded(n, p, rng))


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
        pg = host.part_graph(rng.sample(range(host.n), 8))
        h, fix = complete_connected(pg.graph)
        assert rot_is_plane_connected(h.to_rotations())
        assert labeled_equal(apply_fix(h, fix), pg.graph)
        again, fix2 = complete_connected(pg.graph)
        assert fix2 == fix
        assert labeled_equal(again, h)


# -- starring into triangulations ---------------------------------------------------


def test_star_single_edge_becomes_triangle():
    g = EmbeddedGraph.from_rotations([[1], [0]])
    h, fix = complete_triangulation(g)
    assert h.n == 3
    assert rot_is_plane_triangulation(h.to_rotations())
    assert fix == Fix((2,), ())
    assert labeled_equal(apply_fix(h, fix), g)


def test_star_two_isolated_nodes():
    g = EmbeddedGraph.from_rotations([[], []])
    h, fix = complete_triangulation(g)
    assert rot_is_plane_triangulation(h.to_rotations())
    assert fix == Fix((2,), ((0, 1),))
    assert labeled_equal(apply_fix(h, fix), g)


def test_star_triangle_unchanged():
    g = EmbeddedGraph.from_rotations([[1, 2], [2, 0], [0, 1]])
    h, fix = complete_triangulation(g)
    assert fix == EMPTY_FIX
    assert labeled_equal(h, g)


def test_star_trees_with_repeated_corners():
    # bridges make face walks revisit corners, forcing the multi-round path
    for rots in (
        [[1], [0, 2], [1]],
        [[1, 2, 3], [0], [0], [0]],
        [[1], [0, 2], [1, 3], [2, 4], [3]],
    ):
        g = EmbeddedGraph.from_rotations(rots)
        h, fix = complete_triangulation(g)
        assert rot_is_plane_triangulation(h.to_rotations())
        assert fix.added_nodes == tuple(range(g.n, h.n))
        assert fix.deleted_edges == ()
        assert labeled_equal(apply_fix(h, fix), g)


def test_star_random_trees_roundtrip():
    for seed in range(8):
        rng = random.Random(seed)
        g = EmbeddedGraph.from_rotations(
            random_tree_rotations(rng.randrange(4, 12), rng)
        )
        h, fix = complete_triangulation(g)
        assert rot_is_plane_triangulation(h.to_rotations())
        assert labeled_equal(apply_fix(h, fix), g)
        again, fix2 = complete_triangulation(g)
        assert fix2 == fix
        assert labeled_equal(again, h)


def test_star_too_small():
    with pytest.raises(ChecksFailed):
        complete_triangulation(EmbeddedGraph.from_rotations([[]]))
    with pytest.raises(ChecksFailed):
        complete_triangulation(EmbeddedGraph.from_rotations([[1], [0]]), boundary=(2,))


def test_star_part_of_triangulation_roundtrip():
    # the codec path: complete the induced subgraph on part + neighborhood,
    # marking the neighborhood; the fix recovers the part graph exactly
    for seed in range(8):
        rng = random.Random(100 + seed)
        host = _tri_host(rng.randrange(12, 30), 100 + seed)
        part = set(rng.sample(range(host.n), rng.randrange(1, 5)))
        pg = host.part_graph(part)
        sub, ids = host.induced(part | host.neighbors_of_set(part))
        assert ids == list(pg.ids)
        h, fix = complete_triangulation(sub, pg.boundary)
        assert rot_is_plane_triangulation(h.to_rotations())
        assert labeled_equal(apply_fix(h, fix), pg.graph)


def test_star_canonical_member_roundtrip():
    # completion -> canonical member + relabeled fix, as a codec hands it over
    rng = random.Random(7)
    host = _tri_host(20, 7)
    pg = host.part_graph({3})
    sub, _ids = host.induced(set(pg.ids))
    h, fix = complete_triangulation(sub, pg.boundary)
    lab = canonical_labeling(h)
    member = h.relabel(lab)
    got = apply_fix(member, fix.relabeled(lab))
    survivors = sorted(
        (v for v in range(h.n) if v not in set(fix.added_nodes)),
        key=lambda v: lab[v],
    )
    rank = {lab[v]: i for i, v in enumerate(survivors)}
    assert labeled_equal(got, pg.graph.relabel([rank[lab[v]] for v in range(sub.n)]))


def test_star_fix_size_envelope():
    # one- and two-node parts (the sizes the finest level produces) keep the
    # fix within the envelope constant times the boundary size
    for seed in range(10):
        rng = random.Random(200 + seed)
        host = _tri_host(rng.randrange(14, 34), 200 + seed)
        v = rng.randrange(host.n)
        part = {v}
        if rng.random() < 0.5:
            part.add(rng.choice(host.neighbors(v)))
        pg = host.part_graph(part)
        sub, _ = host.induced(set(pg.ids))
        h, fix = complete_triangulation(sub, pg.boundary)
        assert fix.size <= C_FIX * max(1, len(pg.boundary))


# -- dispatch ---------------------------------------------------------------------


def test_complete_dispatch():
    g = EmbeddedGraph.from_rotations([[1], [0]])
    h, fix = complete(g, (), "none")
    assert h is g
    assert fix == EMPTY_FIX
    with pytest.raises(ValueError):
        complete(g, (), "bogus")


def test_patch_kinds_cover_registered_classes():
    assert {c.patch for c in CLASSES.values()} == {"none", "connect", "star"}
