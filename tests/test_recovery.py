"""Level-by-level reassembly: encoding pieces of a separation hierarchy and
rebuilding them from their finer parts, including rotation splicing."""

import random
import time

import pytest

from plancode.bits import BitWriter
from plancode.embgraph import EmbeddedGraph, labeled_equal, triangulate
from plancode.errors import ChecksFailed, CodecError
from plancode.recovery import PartView, decode_level_from, encode_level
from plancode.separation import (
    LevelProfile,
    Separation,
    build_separations,
    trivial_separation,
)

from oracles import (
    FINE_PROFILE,
    K5_TORUS,
    bit_reader,
    coarse_ranges,
    darts_to_rows,
    grid_rotations,
    part_graph,
    random_planar_embedded,
    random_tree_rotations,
    rows_to_darts,
    separation_chain,
    two_level_chain,
)


def _view(g, part):
    pg = part_graph(g, part)
    return PartView(pg.boundary, list(pg.ids))


def _sep(host, level, center, parts, prev_part):
    return Separation(
        host=host,
        level=level,
        profiles=(),
        parts=[sorted(center)] + [sorted(p) for p in parts],
        hooks=[-1] * (len(parts) + 1),
        prev_part=[0] + list(prev_part),
    )


def _grid(rows, cols):
    return EmbeddedGraph.from_rotations(grid_rotations(rows, cols))


def _col(cols, j, rows):
    return [i * cols + j for i in range(rows)]


def _nbrs(sep):
    """The neighborhood of each part of sep, as encode_level takes them."""
    return [sep.host.neighbors_of_set(part) for part in sep.parts[1:]]


def _decode_rows(r, fine_rows):
    """decode_level_from on parts given as rotation rows, with each coarse
    piece returned as rows: the level's decoder takes and returns half-edge
    arrays, and the oracle converts."""
    pieces = decode_level_from(r, [rows_to_darts(rows) for rows in fine_rows])
    return [darts_to_rows(piece) for piece in pieces]


def _encode_chain(g, seps):
    """Encode every level of g over the chain; finest level first.

    Returns (streams, finest part graphs' rotation rows, produced views per
    level)."""
    parts = seps[-1].parts[1:]
    views = [_view(g, part) for part in parts]
    fine = [part_graph(g, part).graph.to_rotations() for part in parts]
    streams = []
    level_views = []
    for k in range(len(seps) - 1, 0, -1):
        w = BitWriter()
        views = encode_level(w, seps[k - 1], seps[k], views, _nbrs(seps[k]))
        streams.append(w.build())
        level_views.append(views)
    return streams, fine, level_views


def _assert_roundtrip(g, seps):
    """Full encode/decode chain; every decoded piece, relabeled by its view's
    ids, must be the true part graph of its node set, and the top piece must
    be the host graph relabeled."""
    assert len(seps) > 1, f"no separation level on a host of {g.n} nodes"
    streams, fine, level_views = _encode_chain(g, seps)
    rows = fine
    for step, (bits, views) in enumerate(zip(streams, level_views)):
        rows = _decode_rows(bit_reader(bits), rows)
        graphs = [EmbeddedGraph.from_rotations(piece) for piece in rows]
        coarse = seps[len(seps) - 2 - step].parts[1:]
        assert len(graphs) == len(views) == len(coarse)
        for got, view, u in zip(graphs, views, coarse):
            pg = part_graph(g, u)
            idx = {h: i for i, h in enumerate(pg.ids)}
            perm = [idx[h] for h in view.ids]
            assert labeled_equal(got.relabel(perm), pg.graph)
    assert len(graphs) == 1
    top = level_views[-1][0]
    assert sorted(top.ids) == list(range(g.n))
    assert not top.boundary
    assert labeled_equal(graphs[0].relabel(top.ids), g)
    return level_views


def _assert_view_layout(g, seps, level_views):
    """Each produced view must have the documented label layout (kernel
    ascending, part interiors by (part, fine label), boundary ascending) —
    recomputed here from the host and the separations alone."""
    ids_per_part = [sorted(p) for p in seps[-1].parts[1:]]
    bnd_per_part = [sorted(g.neighbors_of_set(set(p))) for p in seps[-1].parts[1:]]
    for step, views in enumerate(level_views):
        sep = seps[len(seps) - 1 - step]
        prev = seps[len(seps) - 2 - step]
        center = set(sep.parts[0])
        ranges = {j: (a, b) for j, a, b in coarse_ranges(sep)}
        new_ids, new_bnd = [], []
        for j in range(1, prev.p + 1):
            u = prev.parts[j]
            view = views[j - 1]
            w_ids = sorted(v for v in u if v in center)
            a, b = ranges.get(j, (0, 0))
            interior = []
            for i in range(a, b):
                bset = set(bnd_per_part[i - 1])
                interior.extend(h for h in ids_per_part[i - 1] if h not in bset)
            nbr = sorted(g.neighbors_of_set(set(u)))
            assert view.ids == w_ids + interior + nbr
            assert view.boundary == frozenset(
                range(len(view.ids) - len(nbr), len(view.ids))
            )
            new_ids.append(view.ids)
            new_bnd.append(nbr)
        ids_per_part, bnd_per_part = new_ids, new_bnd


# -- hand-built separations on structured hosts ---------------------------------


def test_partview_validation():
    with pytest.raises(ValueError):
        PartView(frozenset(), [3, 3])  # duplicate ids
    with pytest.raises(ValueError):
        PartView(frozenset({2}), [0, 1])  # boundary out of range
    v = PartView(frozenset({1}), [7, 9])
    assert v.interior() == [0]


def test_single_level_grid_roundtrip():
    g = _grid(4, 4)
    center = _col(4, 1, 4) + _col(4, 2, 4)
    sep1 = _sep(g, 1, center, [_col(4, 0, 4), _col(4, 3, 4)], [1, 1])
    seps = [trivial_separation(g), sep1]
    lv = _assert_roundtrip(g, seps)
    _assert_view_layout(g, seps, lv)


def test_three_cell_center_splice():
    # Center columns adjacent to two different parts each: their rotations
    # splice one kernel cell with two part cells (multi-run kernel cells).
    g = _grid(3, 7)
    center = _col(7, 1, 3) + _col(7, 3, 3) + _col(7, 5, 3)
    parts = [_col(7, j, 3) for j in (0, 2, 4, 6)]
    seps = [trivial_separation(g), _sep(g, 1, center, parts, [1, 1, 1, 1])]
    lv = _assert_roundtrip(g, seps)
    _assert_view_layout(g, seps, lv)


def test_two_level_grid_chain():
    g = _grid(5, 5)
    c = lambda j: _col(5, j, 5)
    sep1 = _sep(g, 1, c(2), [c(0) + c(1), c(3) + c(4)], [1, 1])
    sep2 = _sep(g, 2, c(1) + c(2) + c(3), [c(0), c(4)], [1, 2])
    seps = [trivial_separation(g), sep1, sep2]
    lv = _assert_roundtrip(g, seps)
    _assert_view_layout(g, seps, lv)


def test_empty_kernel_piece():
    # Refinement that adds no new center nodes: the coarse pieces have an
    # empty kernel, and their boundary rows carry empty skeletons.
    g = _grid(5, 5)
    c = lambda j: _col(5, j, 5)
    sep1 = _sep(g, 1, c(2), [c(0) + c(1), c(3) + c(4)], [1, 1])
    sep2 = _sep(g, 2, c(2), [c(0) + c(1), c(3) + c(4)], [1, 2])
    seps = [trivial_separation(g), sep1, sep2]
    lv = _assert_roundtrip(g, seps)
    _assert_view_layout(g, seps, lv)


def test_boundary_node_multi_cell_splice():
    # Hub adjacent to three paths that are separate fine parts: the hub is a
    # boundary node of the coarse piece and its rotation splices three part
    # cells (and, one level up, two part cells as a kernel node).
    rots = [[1, 3, 5, 7], [0, 2], [1], [0, 4], [3], [0, 6], [5], [0]]
    g = EmbeddedGraph.from_rotations(rots)
    sep1 = _sep(g, 1, [0], [[1, 2, 3, 4, 5, 6], [7]], [1, 1])
    sep2 = _sep(g, 2, [0, 2, 4, 6], [[1], [3], [5], [7]], [1, 1, 1, 2])
    seps = [trivial_separation(g), sep1, sep2]
    lv = _assert_roundtrip(g, seps)
    _assert_view_layout(g, seps, lv)


def test_disconnected_host_and_edge_free_part():
    # A part with no edges leaving it contributes no boundary rows at all;
    # the explicit part count in the header is what keeps decode aligned.
    rots = [[1, 2], [2, 0], [0, 1], [4], [3]]
    g = EmbeddedGraph.from_rotations(rots)
    seps = [trivial_separation(g), _sep(g, 1, [0], [[1, 2], [3, 4]], [1, 1])]
    _assert_roundtrip(g, seps)


def test_isolated_kernel_node():
    rots = [[1], [0, 2], [1], []]
    g = EmbeddedGraph.from_rotations(rots)
    seps = [trivial_separation(g), _sep(g, 1, [1, 3], [[0], [2]], [1, 1])]
    _assert_roundtrip(g, seps)


def test_single_node_host():
    g = EmbeddedGraph.from_rotations([[]])
    seps = [trivial_separation(g), _sep(g, 1, [], [[0]], [1])]
    _assert_roundtrip(g, seps)


def test_positive_genus_host_roundtrip():
    # Recovery is a statement about rotation systems, not planarity.
    g = EmbeddedGraph.from_rotations(K5_TORUS)
    seps = [trivial_separation(g), _sep(g, 1, [0, 1, 2, 4], [[3]], [1])]
    lv = _assert_roundtrip(g, seps)
    streams, fine, _ = _encode_chain(g, seps)
    decoded = EmbeddedGraph.from_rotations(_decode_rows(bit_reader(streams[0]), fine)[0])
    assert decoded.genus() == g.genus()
    _assert_view_layout(g, seps, lv)


def test_adjacent_parts_rejected():
    # Nodes 3 and 4 of K5 are adjacent, so neither may be interior while the
    # other sits on its boundary.
    g = EmbeddedGraph.from_rotations(K5_TORUS)
    sep1 = _sep(g, 1, [0, 1, 2], [[3], [4]], [1, 1])
    views = [_view(g, p) for p in sep1.parts[1:]]
    with pytest.raises(ChecksFailed):
        encode_level(BitWriter(), trivial_separation(g), sep1, views, _nbrs(sep1))


def test_encode_rejects_bad_inputs():
    g = _grid(4, 4)
    center = _col(4, 1, 4) + _col(4, 2, 4)
    parts = [_col(4, 0, 4), _col(4, 3, 4)]
    sep1 = _sep(g, 1, center, parts, [1, 1])
    views = [_view(g, p) for p in parts]
    triv = trivial_separation(g)
    nbrs = _nbrs(sep1)
    with pytest.raises(ChecksFailed):
        encode_level(BitWriter(), triv, sep1, views[:1], nbrs)  # view count mismatch
    with pytest.raises(ChecksFailed):
        encode_level(BitWriter(), triv, sep1, views, nbrs[:1])  # neighborhood count mismatch
    with pytest.raises(ChecksFailed):
        encode_level(BitWriter(), triv, sep1, views[::-1], nbrs)  # views swapped
    with pytest.raises(ChecksFailed):
        encode_level(BitWriter(), triv, sep1, views, nbrs[::-1])  # neighborhoods swapped
    # fine parts not grouped by coarse part
    sep2 = _sep(g, 2, center, parts, [1, 1])
    bad = Separation(
        host=g,
        level=2,
        profiles=(),
        parts=sep2.parts,
        hooks=sep2.hooks,
        prev_part=[0, 2, 1],
    )
    with pytest.raises(ChecksFailed):
        encode_level(BitWriter(), sep1, bad, views, nbrs)
    # a node in neither the center nor any part
    sep3 = _sep(g, 1, _col(4, 1, 4), parts, [1, 1])
    with pytest.raises(ChecksFailed):
        encode_level(BitWriter(), triv, sep3, views, _nbrs(sep3))


def test_encode_deterministic():
    g = _grid(5, 5)
    c = lambda j: _col(5, j, 5)
    sep1 = _sep(g, 1, c(2), [c(0) + c(1), c(3) + c(4)], [1, 1])
    sep2 = _sep(g, 2, c(1) + c(2) + c(3), [c(0), c(4)], [1, 2])
    seps = [trivial_separation(g), sep1, sep2]
    s1, _, _ = _encode_chain(g, seps)
    s2, _, _ = _encode_chain(g, seps)
    assert s1 == s2


# -- full chains over machine-built hierarchies ---------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_chain_random_triangulation(seed):
    rng = random.Random(seed)
    g = random_planar_embedded(100, 1.0, rng)
    assert len(build_separations(g)) == 2  # one refinement level at this size
    seps = two_level_chain(g)
    assert len(seps) == 3
    lv = _assert_roundtrip(g, seps)
    _assert_view_layout(g, seps, lv)


@pytest.mark.parametrize("seed", [3, 4])
def test_chain_sparse_graph_is_its_own_host(seed):
    # As in the codec, the separations are built on the sparse graph itself
    # (about 2n edges), with no chords, and recovery reads their host.
    rng = random.Random(seed)
    g = random_planar_embedded(100, 4 / 99, rng)
    assert triangulate(g).num_edges > g.num_edges
    for seps in (build_separations(g), two_level_chain(g)):
        assert seps[-1].host is g
        lv = _assert_roundtrip(g, seps)
        _assert_view_layout(g, seps, lv)


@pytest.mark.parametrize("seed", [5, 6])
def test_chain_tree_host(seed):
    rng = random.Random(seed)
    tree = EmbeddedGraph.from_rotations(random_tree_rotations(100, rng))
    for seps in (build_separations(tree), two_level_chain(tree)):
        lv = _assert_roundtrip(tree, seps)
        _assert_view_layout(tree, seps, lv)


def test_chain_many_small_hosts():
    rng = random.Random(99)
    for _ in range(12):
        n = rng.randrange(8, 41)
        g = random_planar_embedded(n, rng.uniform(0.3, 1.0), rng)
        # No level of the schedule binds below 73 nodes, so a second
        # chain takes explicit caps: one coarse level, then the finest.
        coarse = LevelProfile(r=5, cap=6)
        for seps in (build_separations(g), separation_chain(g, [coarse, FINE_PROFILE])):
            if len(seps) > 1:
                _assert_roundtrip(g, seps)


# -- malformed streams ------------------------------------------------------------


def _grid_stream():
    g = _grid(4, 4)
    center = _col(4, 1, 4) + _col(4, 2, 4)
    parts = [_col(4, 0, 4), _col(4, 3, 4)]
    sep1 = _sep(g, 1, center, parts, [1, 1])
    views = [_view(g, p) for p in parts]
    w = BitWriter()
    encode_level(w, trivial_separation(g), sep1, views, _nbrs(sep1))
    return w.build(), [part_graph(g, p).graph.to_rotations() for p in parts]


def test_decode_rejects_truncated_stream():
    bits, fine = _grid_stream()
    with pytest.raises(CodecError):
        _decode_rows(bit_reader(bits.slice(0, len(bits) - 4)), fine)


def test_decode_rejects_wrong_fine_graph_count():
    bits, fine = _grid_stream()
    with pytest.raises(CodecError):
        _decode_rows(bit_reader(bits), fine[:-1])
    with pytest.raises(CodecError):
        _decode_rows(bit_reader(bits), fine + [[[]]])


def _triangle_stream(triples=()):
    """One piece: three kernel nodes forming a triangle, no fine parts."""
    w = BitWriter()
    w.write_uint(1)
    w.write_uint(0)  # parts
    w.write_uint(3)  # kernel
    w.write_uint(0)  # interior
    w.write_uint(0)  # boundary
    for row in ([1, 2], [0, 2], [0, 1]):
        w.write_uint(len(row))
        for y in row:
            w.write_uint_bits(y, 2)
    w.write_uint(len(triples))
    for x, a, b in triples:
        w.write_uint_bits(x, 2)
        w.write_uint_bits(a, 2)
        w.write_uint_bits(b, 2)
    return w.build()


def test_decode_handcrafted_triangle():
    got = _decode_rows(bit_reader(_triangle_stream()), [])
    got = [EmbeddedGraph.from_rotations(rows) for rows in got]
    want = EmbeddedGraph.from_rotations([[1, 2], [0, 2], [0, 1]])
    assert len(got) == 1 and labeled_equal(got[0], want)


def test_decode_rejects_triples_on_single_cell_rotation():
    with pytest.raises(CodecError):
        _decode_rows(bit_reader(_triangle_stream([(0, 1, 2)])), [])


def test_decode_rejects_descending_triples():
    with pytest.raises(CodecError):
        _decode_rows(bit_reader(_triangle_stream([(0, 2, 1), (0, 1, 2)])), [])


def test_decode_rejects_oversized_row():
    w = BitWriter()
    w.write_uint(1)
    w.write_uint(0)
    w.write_uint(3)
    w.write_uint(0)
    w.write_uint(0)
    w.write_uint(5)  # degree 5 in a 3-node piece
    with pytest.raises(CodecError):
        _decode_rows(bit_reader(w.build()), [])


def test_decode_rejects_kernel_row_into_part():
    # kernel node 0's skeleton row names the interior label 1
    w = BitWriter()
    w.write_uint(1)
    w.write_uint(1)  # parts
    w.write_uint(1)  # kernel
    w.write_uint(1)  # interior
    w.write_uint(0)  # boundary
    w.write_uint(1)  # deg of kernel node 0
    w.write_uint_bits(1, 1)
    with pytest.raises(CodecError):
        _decode_rows(
            bit_reader(w.build()), [[[1], [0]]]
        )


def test_decode_rejects_boundary_row_to_boundary():
    w = BitWriter()
    w.write_uint(1)
    w.write_uint(0)
    w.write_uint(1)  # kernel: label 0
    w.write_uint(0)
    w.write_uint(2)  # boundary: labels 1, 2
    w.write_uint(0)  # kernel row empty
    w.write_uint(1)  # boundary node 1: degree 1
    w.write_uint_bits(2, 2)  # ... pointing at boundary node 2
    with pytest.raises(CodecError):
        _decode_rows(bit_reader(w.build()), [])


def test_decode_rejects_interior_count_mismatch():
    # the lone fine part has two interior nodes, the header claims one
    w = BitWriter()
    w.write_uint(1)
    w.write_uint(1)
    w.write_uint(1)
    w.write_uint(1)
    w.write_uint(0)
    w.write_uint(0)  # kernel row empty
    w.write_uint(0)  # no boundary rows in the part
    with pytest.raises(CodecError):
        _decode_rows(
            bit_reader(w.build()), [[[1], [0]]]
        )


def test_decode_rejects_descending_part_rows():
    w = BitWriter()
    w.write_uint(1)
    w.write_uint(1)
    w.write_uint(1)  # kernel: 0
    w.write_uint(1)  # interior: 1
    w.write_uint(1)  # boundary: 2
    w.write_uint(0)  # kernel row
    w.write_uint(0)  # boundary row
    w.write_uint(2)  # two boundary rows in the fine part (n = 3, so fw = 2)
    w.write_uint_bits(1, 2)
    w.write_uint_bits(0, 2)
    w.write_uint_bits(0, 2)
    w.write_uint_bits(2, 2)
    with pytest.raises(CodecError):
        _decode_rows(
            bit_reader(w.build()), [[[1], [0, 2], [1]]]
        )


def test_decode_rejects_duplicate_part_targets():
    w = BitWriter()
    w.write_uint(1)
    w.write_uint(1)
    w.write_uint(2)  # kernel: 0, 1
    w.write_uint(1)  # interior: 2
    w.write_uint(0)
    w.write_uint(0)  # kernel rows
    w.write_uint(0)
    w.write_uint(2)  # both fine boundary nodes map to kernel node 0
    w.write_uint_bits(0, 2)
    w.write_uint_bits(0, 2)
    w.write_uint_bits(1, 2)
    w.write_uint_bits(0, 2)
    with pytest.raises(CodecError):
        _decode_rows(
            bit_reader(w.build()), [[[2], [2], [0, 1]]]
        )


def test_decode_rejects_boundary_map_to_interior():
    w = BitWriter()
    w.write_uint(1)
    w.write_uint(1)
    w.write_uint(1)  # kernel: 0
    w.write_uint(1)  # interior: 1
    w.write_uint(0)
    w.write_uint(0)  # kernel row
    w.write_uint(1)  # one boundary row: fine 0 -> coarse 1 (interior)
    w.write_uint_bits(0, 1)
    w.write_uint_bits(1, 1)
    with pytest.raises(CodecError):
        _decode_rows(
            bit_reader(w.build()), [[[1], [0]]]
        )


def test_decode_rejects_triple_on_interior_node():
    w = BitWriter()
    w.write_uint(1)
    w.write_uint(1)
    w.write_uint(1)  # kernel: 0
    w.write_uint(1)  # interior: 1
    w.write_uint(0)
    w.write_uint(0)  # kernel row empty (its one edge comes from the part)
    w.write_uint(1)
    w.write_uint_bits(0, 1)  # fine 0 -> coarse 0
    w.write_uint_bits(0, 1)
    w.write_uint(1)  # one triple, centered on the interior node
    w.write_uint_bits(1, 1)
    w.write_uint_bits(0, 1)
    w.write_uint_bits(0, 1)
    with pytest.raises(CodecError):
        _decode_rows(
            bit_reader(w.build()), [[[1], [0]]]
        )


def test_decode_rejects_isolated_fine_boundary_node():
    # fine node 2 is isolated yet declared boundary: its cell would be empty
    w = BitWriter()
    w.write_uint(1)
    w.write_uint(1)
    w.write_uint(1)  # kernel: 0
    w.write_uint(2)  # interior: 1, 2
    w.write_uint(0)
    w.write_uint(0)  # kernel row
    w.write_uint(1)  # fine 2 -> coarse 0
    w.write_uint_bits(2, 2)
    w.write_uint_bits(0, 2)
    w.write_uint(0)  # no triples
    with pytest.raises(CodecError):
        _decode_rows(
            bit_reader(w.build()), [[[1], [0], []]]
        )


def _two_cell_piece(triples):
    """Kernel {0, 1} joined by a skeleton edge; a K2 part hangs interior node
    2 off kernel node 0, giving node 0 two rotation cells."""
    w = BitWriter()
    w.write_uint(1)
    w.write_uint(1)
    w.write_uint(2)  # kernel: 0, 1
    w.write_uint(1)  # interior: 2
    w.write_uint(0)
    w.write_uint(1)  # kernel 0: [1]
    w.write_uint_bits(1, 2)
    w.write_uint(1)  # kernel 1: [0]
    w.write_uint_bits(0, 2)
    w.write_uint(1)  # fine 0 -> coarse 0
    w.write_uint_bits(0, 1)
    w.write_uint_bits(0, 2)
    w.write_uint(len(triples))
    for x, a, b in triples:
        w.write_uint_bits(x, 2)
        w.write_uint_bits(a, 2)
        w.write_uint_bits(b, 2)
    return w.build()


_TWO_CELL_FINE = [[1], [0]]


def test_decode_two_cell_splice():
    got = _decode_rows(
        bit_reader(_two_cell_piece([(0, 1, 2), (0, 2, 1)])),
        [_TWO_CELL_FINE],
    )
    got = [EmbeddedGraph.from_rotations(rows) for rows in got]
    want = EmbeddedGraph.from_rotations([[1, 2], [0], [0]])
    assert labeled_equal(got[0], want)


@pytest.mark.parametrize(
    "triples",
    [
        [],  # two cells but no splice triples
        [(0, 1, 2)],  # part cell has no run end
        [(0, 1, 1), (0, 2, 2)],  # runs chain onto themselves
        [(0, 1, 0), (0, 2, 1)],  # run continues at a non-start
    ],
)
def test_decode_rejects_bad_splices(triples):
    with pytest.raises(CodecError):
        _decode_rows(
            bit_reader(_two_cell_piece(triples)),
            [_TWO_CELL_FINE],
        )


def test_decode_rejects_empty_piece_count():
    w = BitWriter()
    w.write_uint(0)
    with pytest.raises(CodecError):
        _decode_rows(bit_reader(w.build()), [])


def test_decode_refuses_an_interior_count_past_its_parts():
    # A piece declaring 2^27 interior nodes with no part: refused before any
    # array of that size is made.
    w = BitWriter()
    w.write_uint(1)
    for size in (0, 0, 1 << 27, 0):  # parts, kernel, interior, boundary
        w.write_uint(size)
    t0 = time.perf_counter()
    with pytest.raises(CodecError, match="do not fill the piece"):
        _decode_rows(bit_reader(w.build()), [])
    assert time.perf_counter() - t0 < 1.0
