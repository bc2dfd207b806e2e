"""Container codec: round-trips, stats accounting, and malformed-input rejection."""

import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies

from oracles import (
    antiprism_rotations,
    bit_reader,
    bounded_degree_tree_rotations,
    capped_antiprism_rotations,
    darts_to_rows,
    grid_rotations,
    interleaved_union,
    part_graph,
    random_planar_embedded,
    rows_to_darts,
    torus_grid_rotations,
    triangulate,
    wheel_with_tail,
    wheel_with_tails,
    write_contour_into,
)
from plancode import (
    ChecksFailed,
    CodecError,
    NotInClass,
    decode,
    encode,
    stats,
)
import plancode.codec as codec_mod
import plancode.embgraph as embgraph_mod
import plancode.planar_sep as planar_sep_mod
import plancode.separation as separation_mod
import plancode.table as table_mod
from plancode.bits import BitReader, BitString, BitWriter, ceil_log2
from plancode.constants import FORMAT_VERSION, MAGIC, TABLE_CAP
from plancode.embgraph import (
    EmbeddedGraph,
    labeled_equal,
    read_contour,
    write_graph,
    write_part_contour_into,
)
from plancode.recovery import PartView, decode_level_from
from plancode.separation import LevelProfile, Scratch, level_schedule
from plancode.table import CLASS_ORDER, ClassTable, build_table, get_class, read_table

# K5 admits no genus-0 embedding; these rotations realize genus 1 and 2.
K5_GENUS1 = [[4, 2, 3, 1], [3, 0, 4, 2], [4, 1, 3, 0], [1, 0, 2, 4], [0, 3, 1, 2]]
K5_GENUS2 = [[u for u in range(5) if u != v] for v in range(5)]
# K7 on the torus: neighbor steps (1, 3, 2, -1, -3, -2) around every node.
K7_TORUS = [[(v + s) % 7 for s in (1, 3, 2, 6, 4, 5)] for v in range(7)]
# A shuffled K7 rotation of genus 6.
K7_GENUS6 = [
    [3, 4, 6, 1, 5, 2],
    [0, 2, 3, 5, 6, 4],
    [3, 6, 5, 4, 0, 1],
    [6, 1, 2, 0, 5, 4],
    [6, 3, 5, 0, 1, 2],
    [2, 3, 1, 4, 6, 0],
    [4, 2, 5, 1, 0, 3],
]


def roundtrip(g, class_name, **kw):
    """Encode, decode, and check the labeling contract; returns the result."""
    kw.setdefault("inline_table", False)
    res = encode(g, class_name, **kw)
    out = decode(res.data)
    assert labeled_equal(out, g.relabel(res.labeling))
    assert sorted(res.labeling) == list(range(g.n))
    return res


def uint_bits(x):
    w = BitWriter()
    w.write_uint(x)
    return w.build()


def union_rotations(parts):
    rows, offset = [], 0
    for part in parts:
        rows.extend([x + offset for x in row] for row in part)
        offset += len(part)
    return rows


# -- round-trips ------------------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 2, 4, 6])
def test_roundtrip_planar_bypass_sizes(n):
    g = random_planar_embedded(n, 0.5, random.Random(n)) if n else EmbeddedGraph.from_rotations([])
    res = roundtrip(g, "planar")
    assert res.stats.levels == ((0,) if n else ())


@pytest.mark.parametrize("n,seed", [(7, 0), (12, 1), (25, 2), (60, 3)])
def test_roundtrip_planar_pipeline(n, seed):
    g = random_planar_embedded(n, 0.5, random.Random(seed))
    res = roundtrip(g, "planar")
    # No level binds below 73 nodes: the component is then one part.
    assert res.stats.levels == (len(level_schedule(n)),)


@pytest.mark.parametrize("n,seed", [(7, 4), (30, 5), (60, 6)])
def test_roundtrip_plane_connected(n, seed):
    g = random_planar_embedded(n, 0.4, random.Random(seed))
    assert g.connected
    roundtrip(g, "plane-connected")


@pytest.mark.parametrize("class_name", ["planar", "plane-connected"])
@pytest.mark.parametrize("n", [120, 400, 1200])
@pytest.mark.parametrize("c", [3, 4])
def test_roundtrip_sparse(class_name, n, c):
    # About 1.5n and 2n edges: any fixed p >= 6/(n-1) would draw a full
    # triangulation at these sizes.
    g = random_planar_embedded(n, c / (n - 1), random.Random(n + c))
    assert abs(g.num_edges - c * n / 2) <= 1
    res = roundtrip(g, class_name)
    assert res.stats.levels == (len(level_schedule(n)),)


@pytest.mark.parametrize("n,seed", [(8, 7), (20, 8), (40, 9)])
def test_roundtrip_plane_triangulation(n, seed):
    g = triangulate(random_planar_embedded(n, 0.4, random.Random(seed)))
    roundtrip(g, "plane-triangulation")


@pytest.mark.parametrize("n,seed", [(2, 10), (9, 11), (18, 12), (40, 13)])
def test_roundtrip_single_tree(n, seed):
    g = EmbeddedGraph.from_rotations(bounded_degree_tree_rotations(n, random.Random(seed)))
    roundtrip(g, "forest-deg5")


def test_roundtrip_forest_components():
    rows = union_rotations([
        bounded_degree_tree_rotations(9, random.Random(21)),
        [[]],
        bounded_degree_tree_rotations(12, random.Random(23)),
    ])
    res = roundtrip(EmbeddedGraph.from_rotations(rows), "forest-deg5")
    assert res.stats.components == 3
    assert len(res.stats.levels) == 3


def test_roundtrip_multicomponent_planar_mixed(fine_schedule):
    # One component with a separation level, one plain graph, one table
    # member, one isolated node.
    g1 = random_planar_embedded(40, 0.5, random.Random(31)).to_rotations()
    g2 = random_planar_embedded(16, 0.5, random.Random(33)).to_rotations()
    g3 = random_planar_embedded(4, 0.5, random.Random(32)).to_rotations()
    g = EmbeddedGraph.from_rotations(union_rotations([g1, g2, g3, [[]]]))
    res = roundtrip(g, "planar")
    assert res.stats.levels == (1, 0, 0, 0)
    assert res.stats.part_sizes[-3:] == (16, 4, 1)


def test_roundtrip_inline_table():
    g = random_planar_embedded(25, 0.5, random.Random(40))
    res = roundtrip(g, "planar", inline_table=True)
    assert res.stats.table_bits > 1000  # the table really is in the container
    t = triangulate(random_planar_embedded(12, 0.4, random.Random(41)))
    roundtrip(t, "plane-triangulation", inline_table=True)


# The pentagonal bipyramid: a 5-cycle with an apex on each side, a plane
# triangulation on 7 nodes with minimum degree 4.
BIPYRAMID_5 = [[(i + 1) % 5, 5, (i - 1) % 5, 6] for i in range(5)] + [
    [0, 1, 2, 3, 4],
    [4, 3, 2, 1, 0],
]


def _small_triangulations():
    """Seeded shuffled stacked triangulations of 4 to 10 nodes, and capped
    antiprisms and the pentagonal bipyramid of 7 to 10 nodes."""
    rng = random.Random(77)
    out = []
    for n in range(4, 11):
        for _ in range(3):
            g = random_planar_embedded(n, 1.0, rng)
            perm = list(range(n))
            rng.shuffle(perm)
            out.append(g.relabel(perm))
    for rows in (capped_antiprism_rotations(3), capped_antiprism_rotations(4), BIPYRAMID_5):
        out.append(EmbeddedGraph.from_rotations(rows))
    return out


@pytest.mark.parametrize("inline", [False, True])
def test_roundtrip_small_triangulations(inline, fine_schedule):
    min_degree = Counter()
    for g in _small_triangulations():
        assert get_class("plane-triangulation").member(g)
        res = roundtrip(g, "plane-triangulation", inline_table=inline)
        st = res.stats
        assert st.fix_bits == 0
        if g.n <= TABLE_CAP:
            assert st.levels == (0,) and st.part_sizes == (g.n,)
            continue
        # At 7 to 10 nodes the one level puts every node of degree above 3
        # in the center, so a triangulation of minimum degree 4 leaves no
        # part.
        assert st.levels == (1,)
        dmin = min(g.degree(v) for v in range(g.n))
        min_degree[dmin] += 1
        assert bool(st.part_sizes) == (dmin == 3)
    assert min_degree[3] and min_degree[4]


@pytest.mark.parametrize("class_name", CLASS_ORDER)
def test_table_section_is_empty_by_reference_and_the_table_inline(class_name):
    if class_name == "forest-deg5":
        g = EmbeddedGraph.from_rotations(bounded_degree_tree_rotations(20, random.Random(20)))
    else:
        g = random_planar_embedded(20, 1.0, random.Random(20))
    table = build_table(class_name)
    by_ref = encode(g, class_name, inline_table=False).stats
    inline = encode(g, class_name, inline_table=True)
    st = inline.stats
    assert by_ref.table_bits == 0
    assert st.table_bits == len(table.serialize())
    # The section opens with the count of size-1 members, not a class id.
    r = BitReader(inline.data, pos=st.header_bits)
    assert r.read_uint() == table.num(1) == 1
    # The table is all that the inline container adds.
    assert st.header_bits == by_ref.header_bits
    assert st.total_bits - st.padding_bits - st.table_bits == by_ref.total_bits - by_ref.padding_bits


# The octahedron with a node stacked into one face: the stacked node is the
# only one of degree 3.
STACKED_OCTAHEDRON = [
    [1, 6, 2, 3, 4],
    [0, 4, 5, 2, 6],
    [0, 6, 1, 5, 3],
    [0, 2, 5, 4],
    [0, 3, 5, 1],
    [1, 4, 3, 2],
    [0, 1, 2],
]


def test_triangulation_parts_are_stars_coded_by_the_plane_connected_table(fine_schedule):
    g = EmbeddedGraph.from_rotations(STACKED_OCTAHEDRON)
    res = roundtrip(g, "plane-triangulation", inline_table=True)
    st = res.stats
    # The one part is the degree-3 node with its three neighbors.
    assert st.levels == (1,) and st.part_sizes == (4,)
    assert st.fix_bits == 0
    table = build_table("plane-connected")
    assert st.part_widths[0] == table.width(4) > 0
    bits = BitString.from_bytes(res.data, 8 * len(res.data))
    assert read_table(bit_reader(bits, st.header_bits), "plane-triangulation") is table
    assert st.table_bits == len(table.serialize())


# Inputs whose one level (7 to 10 nodes: degree cap 3) puts every node in the
# center, since each has degree 4 or more, so the finest level leaves no part.
ZERO_PART_INPUTS = [
    ("antiprism-8", antiprism_rotations(4), "plane-connected"),
    ("antiprism-8", antiprism_rotations(4), "planar"),
    ("antiprism-10", antiprism_rotations(5), "plane-connected"),
    ("antiprism-10", antiprism_rotations(5), "planar"),
    ("bipyramid-7", BIPYRAMID_5, "plane-triangulation"),
]


@pytest.mark.parametrize(
    "rows,class_name",
    [(rows, cls) for _, rows, cls in ZERO_PART_INPUTS],
    ids=[f"{name}-{cls}" for name, _, cls in ZERO_PART_INPUTS],
)
def test_roundtrip_finest_level_without_parts(rows, class_name, fine_schedule):
    g = EmbeddedGraph.from_rotations(rows)
    res = roundtrip(g, class_name)
    assert res.stats.levels == (1,)
    assert res.stats.part_sizes == ()


def test_roundtrip_wheel_6_tail_1_has_parts(fine_schedule):
    # Under the same level only the hub and the tail's rim node exceed degree
    # 3: the other five rim nodes form one part with the hub and that rim
    # node as its neighborhood, and the tail node a second one.
    g = EmbeddedGraph.from_rotations(wheel_with_tail(6, 1))
    res = roundtrip(g, "plane-connected")
    assert res.stats.levels == (1,)
    assert res.stats.part_sizes == (7, 2)


@pytest.mark.parametrize(
    "rows,class_name",
    [
        (antiprism_rotations(8), "planar"),
        (capped_antiprism_rotations(5), "plane-triangulation"),
        (wheel_with_tail(20, 4), "plane-connected"),
    ],
    ids=["antiprism-16", "icosahedron", "wheel-20-tail-4"],
)
def test_roundtrip_component_as_one_plain_part(rows, class_name):
    # No level binds below 73 nodes: the component is one part above the
    # table cap, written as the contour code of the input's rows, so the
    # decoded labeling is the code's depth-first preorder.
    g = EmbeddedGraph.from_rotations(rows)
    res = roundtrip(g, class_name)
    assert res.stats.levels == (0,) and res.stats.part_sizes == (g.n,)
    w = BitWriter()
    order = write_contour_into(w, rows)
    assert [res.labeling[v] for v in order] == list(range(g.n))
    assert res.stats.fix_bits == 0
    # One component with a cycle: two bits for each end of each edge.
    flag_and_count = 1 + len(uint_bits(g.num_edges))
    assert res.stats.part_code_bits == len(w.build()) - len(uint_bits(g.n))
    assert res.stats.part_code_bits == flag_and_count + 4 * g.num_edges


def _separated_inputs():
    """(class, rows) pairs whose components reach a separation level."""
    rng = random.Random(16)
    trees = [bounded_degree_tree_rotations(n, rng) for n in range(7, 21)]
    trees += [bounded_degree_tree_rotations(n, rng) for n in (40, 120, 400)]
    forest = union_rotations(trees)
    out = [("forest-deg5", forest), ("planar", forest)]
    for rows in (
        grid_rotations(6, 9),
        wheel_with_tail(6, 1),
        wheel_with_tail(40, 1),
        wheel_with_tails(24, 6),
        antiprism_rotations(16),
        antiprism_rotations(40),
    ):
        out.append(("plane-connected", rows))
    for n in (60, 200, 500):  # stacked triangulations thinned to about 2n edges
        g = random_planar_embedded(n, 4 / (n - 1), rng)
        out.append(("plane-connected", g.to_rotations()))
    return out


def test_every_finest_part_graph_is_connected(monkeypatch, fine_schedule):
    # Each component is separated on its own rotations, so every finest part,
    # one or more pieces of it clustered around one center hook, has a
    # connected part graph, which a table of connected members holds.
    written = []  # (host, part) for every part the encoder writes
    encode_part = codec_mod._encode_part

    def record_part(w, sub, part, nbrs, table):
        written.append((sub, part))
        return encode_part(w, sub, part, nbrs, table)

    monkeypatch.setattr(codec_mod, "_encode_part", record_part)
    tabled = 0  # parts coded by their table index
    for class_name, rows in _separated_inputs():
        written.clear()
        res = roundtrip(EmbeddedGraph.from_rotations(rows), class_name)
        assert any(res.stats.levels) and len(written) == len(res.stats.part_sizes)
        assert all(part_graph(sub, part).graph.connected for sub, part in written)
        tabled += sum(m <= TABLE_CAP for m in res.stats.part_sizes)
    assert tabled


def test_reencode_of_decoded_graph():
    g = random_planar_embedded(30, 0.5, random.Random(50))
    first = encode(g, "planar", inline_table=False)
    d = decode(first.data)
    second = encode(d, "planar", inline_table=False)
    d2 = decode(second.data)
    assert labeled_equal(d2, d.relabel(second.labeling))


def test_encode_deterministic():
    for cls, g in [
        ("planar", random_planar_embedded(30, 0.5, random.Random(60))),
        ("plane-triangulation", triangulate(random_planar_embedded(15, 0.4, random.Random(61)))),
    ]:
        a = encode(g, cls, inline_table=False)
        b = encode(g, cls, inline_table=False)
        assert a.data == b.data and a.labeling == b.labeling


def _small_shapes():
    """(class, graph) for every class at 1 to 40 nodes: trees, stacked and
    thinned triangulations, antiprisms, wheels with 0 to 2 tail nodes, and
    grids up to 12 x 12."""
    rng = random.Random(300)
    out = []
    for n in range(1, 41):
        out.append(("forest-deg5", EmbeddedGraph.from_rotations(bounded_degree_tree_rotations(n, rng))))
        out.append(("plane-connected", random_planar_embedded(n, 0.3, rng)))
        if n >= 3:
            out.append(("plane-triangulation", random_planar_embedded(n, 1.0, rng)))
    for k in range(3, 21):
        out.append(("planar", EmbeddedGraph.from_rotations(antiprism_rotations(k))))
    for rim in range(3, 38):
        out.append(("plane-connected", EmbeddedGraph.from_rotations(wheel_with_tail(rim, rim % 3))))
    for rows in range(1, 13):
        for cols in range(rows, min(rows + 1, 12) + 1):
            out.append(("planar", EmbeddedGraph.from_rotations(grid_rotations(rows, cols))))
    return out


def _body_shape(st):
    if st.levels == (0,):
        return "table part" if st.n <= TABLE_CAP else "plain part"
    return "level" if st.part_sizes else "level without parts"


@pytest.mark.parametrize("inline", [False, True])
def test_small_shapes_keep_the_contract(inline, fine_schedule):
    shapes = Counter()
    for class_name, g in _small_shapes():
        assert get_class(class_name).member(g)
        res = roundtrip(g, class_name, inline_table=inline)
        st = res.stats
        assert layer_sum(st) == st.total_bits == 8 * len(res.data)
        assert st.levels == (len(separation_mod.level_schedule(g.n)) if g.n > TABLE_CAP else 0,)
        shapes[_body_shape(st)] += 1
    assert set(shapes) == {"table part", "plain part", "level", "level without parts"}


@pytest.mark.parametrize("inline", [False, True])
def test_roundtrip_two_levels(monkeypatch, inline):
    # Below 122,395 nodes the schedule has one level; a finer second one
    # makes the decoder replay two recovery streams, coarsest last.  Its
    # part graphs fall on both sides of the table cap.
    schedule = separation_mod.level_schedule
    finer = LevelProfile(r=5, cap=4)
    monkeypatch.setattr(separation_mod, "level_schedule", lambda n: schedule(n) + [finer])
    rng = random.Random(310)
    sizes = set()
    for class_name, g in (
        ("plane-triangulation", random_planar_embedded(200, 1.0, rng)),
        ("plane-connected", random_planar_embedded(120, 0.3, rng)),
        ("forest-deg5", EmbeddedGraph.from_rotations(bounded_degree_tree_rotations(150, rng))),
    ):
        st = roundtrip(g, class_name, inline_table=inline).stats
        assert st.levels == (2,)
        sizes.update(st.part_sizes)
    assert min(sizes) <= TABLE_CAP < max(sizes)  # table codes and plain parts


# -- size regression ------------------------------------------------------------


@pytest.mark.parametrize(
    "class_name,make,bound",
    [
        (
            "plane-triangulation",
            lambda: random_planar_embedded(6400, 1.0, random.Random(1)),
            18.0,
        ),
        (
            "forest-deg5",
            lambda: EmbeddedGraph.from_rotations(
                bounded_degree_tree_rotations(2000, random.Random(1))
            ),
            3.2,
        ),
    ],
    ids=["stacked-6400", "tree-2000"],
)
def test_size_stays_under_its_bound(class_name, make, bound):
    # The level schedule and the separator set most of a container's size.
    # These inputs take 17.04 and 2.90 b/node by table reference.  The
    # bounds fail a schedule of r = ceil(2 lam^2) (19.76 on the
    # triangulation), one of r = ceil(lam^2) and caps ceil(lam^4) (39.51 and
    # 4.45), and tree pieces cut by levels and a cycle, not by a tree cut
    # (3.68).
    g = make()
    res = roundtrip(g, class_name)
    assert res.stats.levels == (1,)
    assert 8 * len(res.data) / g.n < bound


# -- format pin -----------------------------------------------------------------

# SHA-256 of each container's bytes and of its labeling written as decimal
# labels joined by commas, for fixed inputs: (class, inline table, graph).
# A change to the grammar bumps FORMAT_VERSION.  A change to the separator
# or the level schedule moves these digests under the same grammar: the
# digests it moves are regenerated, and CHANGES.md names them.
GOLDEN_INPUTS = {
    "icosahedron": (
        "plane-triangulation",
        True,
        lambda: EmbeddedGraph.from_rotations(capped_antiprism_rotations(5)),
    ),
    "wheel-40-tail-1": (
        "plane-connected",
        False,
        lambda: EmbeddedGraph.from_rotations(wheel_with_tail(40, 1)),
    ),
    "planar-50": (
        "planar",
        False,
        lambda: random_planar_embedded(50, 0.5, random.Random(50)),
    ),
    "forest-36": (
        "forest-deg5",
        False,
        lambda: EmbeddedGraph.from_rotations(
            union_rotations([
                bounded_degree_tree_rotations(30, random.Random(51)),
                [[]],
                bounded_degree_tree_rotations(5, random.Random(52)),
            ])
        ),
    ),
    "triangulation-60": (
        "plane-triangulation",
        False,
        lambda: triangulate(random_planar_embedded(60, 0.4, random.Random(53))),
    ),
    "connected-60": (
        "plane-connected",
        False,
        lambda: random_planar_embedded(60, 0.4, random.Random(54)),
    ),
    # One table code.
    "connected-6": (
        "plane-connected",
        False,
        lambda: random_planar_embedded(6, 0.4, random.Random(55)),
    ),
    # Large enough for the separator: the tree is cut in one bottom-up pass
    # (no contraction), and the stacked triangulation is already
    # triangulated.
    "forest-2000": (
        "forest-deg5",
        False,
        lambda: EmbeddedGraph.from_rotations(
            bounded_degree_tree_rotations(2000, random.Random(56))
        ),
    ),
    "triangulation-1600": (
        "plane-triangulation",
        False,
        lambda: random_planar_embedded(1600, 1.0, random.Random(57)),
    ),
}
GOLDEN_DIGESTS = {
    "icosahedron": (
        "41ded32e1782189e7f845d6068f2e582219018a03865928dadd5bb756a572b68",
        "6491691ee6ace1b86174f18175f474729f353b02af064c7392e68886aea51b0e",
    ),
    "wheel-40-tail-1": (
        "67cf47c776539ac639d05cec30720bd8a89397fdc6e7a39532182901fe04018b",
        "b235126c484178e5234759957a9f02ed1e266bf75efe0359d68221d1311b4cb1",
    ),
    "planar-50": (
        "b5ae21f79ff13556dc4674bae42012096cdfcd7743c551120da8fbd6744e9812",
        "764df94266ff1705a6618d2e2f38bae971d2d34b47a84e10fba6ab783fa4af16",
    ),
    "forest-36": (
        "edb32c628f1f0c174060a0860a668ae2aa6b178ff4d117cd4c179bfbd2ec3164",
        "1841b1c2d553283415584f01b40838c2b8fdcffcea9b0c81339cf3646e4fef0e",
    ),
    "triangulation-60": (
        "cda2e7da3eab6340ab767eb7b6ac342b86ea94a99b9a1952f40dbbbc4ea9d639",
        "bb4914273581944ef3369a0e715c2b43585d2ac3bfe1b73fc8858c3aa92cecc9",
    ),
    "connected-60": (
        "3b485041a5657d7c043724ffd3dd0f4ccfda80c1a5a6d829f8d143a51bf4f67a",
        "2aeb782029347ad6ecbbf9f1d14bac70f5c623cea2e928de283afaad2b1eb6c3",
    ),
    "connected-6": (
        "cc4df44250e9fa681fff7e3781f1b60b790c3352a7974c821368f4a468312a26",
        "7f1201400ffbdf291d5ea394a7abda3608336309e639fb18767da684bee02d58",
    ),
    "forest-2000": (
        "d746ff51ed2bfa348f22dd89076ccd7c27a5d84bc0729736bc635873a84d5d07",
        "a8b6fadda50eaf196a58bfa54066f16aef5950e1bc9d39a25d83d1c48a40e60f",
    ),
    "triangulation-1600": (
        "fd711f53ba7991228c5aef6fd797efacc01e49ad69e2a98156c1c8c6d2b9f948",
        "ca0c82d683ccfe662eb2b37bf41ad25e471a776f10c7420e45d90c8d501c3b59",
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN_INPUTS))
def test_format_golden_digests(name):
    assert FORMAT_VERSION == 7
    class_name, inline, make = GOLDEN_INPUTS[name]
    res = encode(make(), class_name, inline_table=inline)
    labeling = ",".join(map(str, res.labeling)).encode()
    got = (hashlib.sha256(res.data).hexdigest(), hashlib.sha256(labeling).hexdigest())
    assert got == GOLDEN_DIGESTS[name]


# -- standard library only -------------------------------------------------------

# Round-trips the (class, rotations) pairs read from stdin with numpy made
# unimportable, and prints per input whether it round-tripped and how many
# cycle phases its encode ran.
_NO_NUMPY_ROUND_TRIPS = """
import json, sys
sys.modules["numpy"] = None  # an import of numpy now raises ImportError
import plancode.planar_sep as planar_sep
from plancode import EmbeddedGraph, decode, encode
from plancode.embgraph import labeled_equal

phases = [0]
search = planar_sep._balanced_cycle

def counted(H):
    phases[0] += 1
    return search(H)

planar_sep._balanced_cycle = counted
out = []
for class_name, rows in json.load(sys.stdin):
    phases[0] = 0
    g = EmbeddedGraph.from_rotations(rows)
    res = encode(g, class_name)
    out.append([labeled_equal(decode(res.data), g.relabel(res.labeling)), phases[0]])
print(json.dumps(out))
"""


def test_round_trips_run_without_numpy():
    rng = random.Random(14)
    inputs = [
        # trees are cut bottom up: no cycle phase
        ["forest-deg5", bounded_degree_tree_rotations(2000, rng)],
        # already triangulated: the triangle scan finds no open dart
        ["plane-triangulation", random_planar_embedded(400, 1.0, rng).to_rotations()],
        # about 1.5n edges: the pieces have cycles and reach the cycle phase
        ["plane-connected", random_planar_embedded(400, 3 / 399, rng).to_rotations()],
    ]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_ROUND_TRIPS],
        input=json.dumps(inputs),
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    (tree_ok, tree_phases), (triangulation_ok, _), (sparse_ok, sparse_phases) = json.loads(
        proc.stdout
    )
    assert tree_ok and triangulation_ok and sparse_ok
    assert tree_phases == 0 and sparse_phases > 0


# -- each job done once ---------------------------------------------------------


def _count_calls(monkeypatch, owner, name, calls, record=None):
    orig = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        if record is not None:
            record(*args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_encode_and_decode_do_each_job_once(monkeypatch, fine_schedule):
    g = random_planar_embedded(400, 1.0, random.Random(400))  # stacked triangulation
    # The process holds the standard table, with no member parsed yet.
    held = build_table("plane-triangulation")
    table = ClassTable(held.gclass, held._members)
    monkeypatch.setitem(table_mod._TABLE_MEMO, held.name, table)
    calls = Counter()
    requested = set()
    labeled = []  # node counts of the canonically labeled graphs
    _count_calls(
        monkeypatch, embgraph_mod, "canonical_form", calls,
        record=lambda graph: labeled.append(graph.n),
    )
    _count_calls(monkeypatch, separation_mod, "planarize", calls)
    _count_calls(monkeypatch, separation_mod, "refine", calls)
    hosts = []  # the hosts separated
    _count_calls(
        monkeypatch, codec_mod, "build_separations", calls,
        record=lambda host, *_: hosts.append(host),
    )
    copied = []  # (graph, node count) passed to induced or copied whole
    _count_calls(
        monkeypatch, EmbeddedGraph, "induced", calls,
        record=lambda graph, nodes: copied.append((graph, len(nodes))),
    )
    _count_calls(
        monkeypatch, EmbeddedGraph, "copy", calls,
        record=lambda graph: copied.append((graph, graph.n)),
    )
    searched = []  # graphs searched for components, kept alive so ids stay apart
    _count_calls(
        monkeypatch, EmbeddedGraph, "component_ids", calls,
        record=lambda graph, *_: searched.append(graph),
    )
    _count_calls(monkeypatch, table_mod, "read_graph", calls)
    _count_calls(
        monkeypatch, ClassTable, "member_graph", calls,
        record=lambda _table, m, idx: requested.add((m, idx)),
    )
    traced = Counter()  # whole-graph face traces, per graph object
    for name in ("euler", "faces", "face_of_darts"):
        _count_calls(
            monkeypatch, EmbeddedGraph, name, calls,
            record=lambda graph, *_: traced.update([id(graph)]),
        )
    read = []  # (part size, part graph size) of every part read as rows
    part_rows = EmbeddedGraph.part_rows

    def record_rows(graph, part):
        out = part_rows(graph, part)
        read.append((len(part), len(out[0])))
        return out

    monkeypatch.setattr(EmbeddedGraph, "part_rows", record_rows)
    built = []  # node counts of the graphs built from rows
    _count_calls(
        monkeypatch, EmbeddedGraph, "from_rotations", calls,
        record=lambda rows: built.append(len(rows)),
    )
    res = encode(g, "plane-triangulation", inline_table=True)
    st = res.stats
    coded = [m for m in st.part_sizes if m <= TABLE_CAP]
    # The self-parse checks the decoded rows against the input: no graph of
    # n nodes is built.  Only a part graph of at most the table cap's nodes,
    # known from the part's one neighborhood walk, is read as rows; one
    # above the cap is written off the host's darts.  So exactly the table
    # parts' rows are read, each once.
    assert g.n not in built
    assert sorted(m for _size, m in read) == sorted(coded)
    # One canonical labeling per table code written, none for the lookup,
    # and none for a part above the table cap.
    assert coded and len(coded) < len(st.part_sizes)
    assert calls["canonical_form"] == len(coded)
    assert max(labeled) <= TABLE_CAP
    # One separation level for the host, built once: one refine, not one per
    # level, and no planarize, since encode's own euler found genus 0.
    assert st.levels == (1,)
    assert calls["build_separations"] == calls["refine"] == 1
    assert calls["planarize"] == 0
    # The genus guard and the class predicate share one trace of the faces.
    assert traced[id(g)] == 1
    # A connected input is its own component and the host its separation is
    # built on: it is never copied, whole or induced.  Nothing searches it
    # for components: encode's own euler finds it connected, refine takes
    # its components from decompose_cut and proves it connected from them,
    # and build_separations runs no check of its own.
    assert hosts == [g]
    assert not any(graph is g for graph, _ in copied)
    assert not any(graph is g for graph in searched)

    # The self-parse inside encode and two decodes in this process read the
    # inline table as the held one and parse each member they use once.
    # The header's genus check and the class predicate share one trace too
    # (counted while the decoded graph lives, so its id is its own).
    # Decode checks the header's component count with that trace and runs
    # no component search on the graph it decodes.
    traced.clear()
    first = decode(res.data)
    assert traced[id(first)] == 1
    traced.clear()
    second = decode(res.data)
    assert traced[id(second)] == 1
    assert not any(graph is first or graph is second for graph in searched)
    assert calls["member_graph"] == 3 * len(coded)
    assert calls["read_graph"] == len(requested) < sum(table.counts())
    assert labeled_equal(first, second)
    assert labeled_equal(first, g.relabel(res.labeling))

    # A component small enough for the table is labeled once and not
    # separated; one above the cap with no binding level is neither.
    for n, labelings in ((6, 1), (20, 0)):
        calls.clear()
        small = encode(random_planar_embedded(n, 1.0, random.Random(n)), "plane-triangulation")
        assert small.stats.levels == (0,) and calls["canonical_form"] == labelings
        assert calls["refine"] == 0

    # A multi-component input is the host of every component's separation,
    # built in place, and is never copied; a component within the cap, or
    # of 7 to 72 nodes, where the standard schedule has no level, is
    # written from the input's own rows and not separated.
    monkeypatch.setattr(separation_mod, "level_schedule", level_schedule)
    sizes = (1, 6, 40, 3, 5, 60, 80)
    forest = EmbeddedGraph.from_rotations(
        union_rotations([bounded_degree_tree_rotations(n, random.Random(n)) for n in sizes])
    )
    copied.clear()
    hosts.clear()
    res = roundtrip(forest, "forest-deg5")
    assert res.stats.levels == (0, 0, 0, 0, 0, 0, 1)
    assert not any(graph is forest for graph, _ in copied)
    assert hosts == [forest]

    # Decoding it again, with its table members parsed, makes the one
    # graph from all bodies' half-edge arrays: no body is built alone, and
    # no rows are built at all.
    want = forest.relabel(res.labeling)
    calls.clear()
    assert labeled_equal(decode(res.data), want)
    assert calls["from_rotations"] == 0

    # A two-level body passes half-edge arrays from level to level: a table
    # member's arrays are its parsed graph's, and no part or piece is turned
    # into rows.
    finer = LevelProfile(r=5, cap=4)
    monkeypatch.setattr(separation_mod, "level_schedule", lambda n: level_schedule(n) + [finer])
    two = random_planar_embedded(120, 0.3, random.Random(120))
    res = encode(two, "planar", inline_table=False)
    assert res.stats.levels == (2,)
    want = two.relabel(res.labeling)
    _count_calls(monkeypatch, EmbeddedGraph, "to_rotations", calls)
    calls.clear()
    got = decode(res.data)
    assert any(m <= TABLE_CAP for m in res.stats.part_sizes)
    assert calls["to_rotations"] == 0
    assert calls["from_rotations"] == 0
    assert labeled_equal(got, want)


def test_encode_checks_its_container_against_its_input(monkeypatch):
    # A 30-node triangulation has no level: it is one contour part, and its
    # view gives the labeling.  encode's self-parse compares the decoded
    # rows with the input relabeled, so a wrong labeling of a right
    # container, and a valid container of another graph, both fail it.
    g = random_planar_embedded(30, 1.0, random.Random(30))
    good = encode(g, "planar")
    assert good.stats.levels == (0,)
    encode_part = codec_mod._encode_part
    a, b = min(range(g.n), key=g.degree), max(range(g.n), key=g.degree)  # not automorphic

    def swap_two(w, sub, part, nbrs, table):
        view = encode_part(w, sub, part, nbrs, table)
        ids = [b if v == a else a if v == b else v for v in view.ids]
        return PartView(view.boundary, ids)

    monkeypatch.setattr(codec_mod, "_encode_part", swap_two)
    with pytest.raises(ChecksFailed, match="differs from node"):
        encode(g, "planar")

    # The mirror image writes a container that decodes to a valid planar
    # graph, but not to g relabeled.
    mirror = EmbeddedGraph.from_rotations([row[::-1] for row in g.to_rotations()])

    def write_mirror(w, sub, part, nbrs, table):
        return encode_part(w, mirror, part, nbrs, table)

    monkeypatch.setattr(codec_mod, "_encode_part", write_mirror)
    with pytest.raises(ChecksFailed, match="differs from node"):
        encode(g, "planar")
    monkeypatch.setattr(codec_mod, "_encode_part", encode_part)
    data = encode(mirror, "planar").data
    assert data != good.data and decode(data).genus() == 0

    # The parsed header must name the input's node count, class, genus and
    # component count.
    parse = codec_mod.stats
    wrong = {"n": 31, "class_name": "plane-connected", "genus": 1, "components": 2}
    for field, value in wrong.items():
        monkeypatch.setattr(
            codec_mod, "stats",
            lambda data, **kw: dataclasses.replace(parse(data, **kw), **{field: value}),
        )
        with pytest.raises(ChecksFailed, match="header does not match"):
            encode(g, "planar")


def test_source_check_takes_each_row_up_to_its_start():
    # A path 0-1-2 and a node 3, relabeled: each decoded node's cycle may
    # start at any dart.  A node that runs around its rotation twice (over
    # a doubled edge), one that runs the other way, a dart at a node that
    # should be isolated and a labeling that is not a bijection all fail.
    g = EmbeddedGraph.from_rotations([[1], [0, 2], [1], []])
    lab = [2, 0, 3, 1]
    good = rows_to_darts([[2, 3], [], [0], [0]])
    codec_mod._check_source(good, g, lab)
    codec_mod._check_source(rows_to_darts([[3, 2], [], [0], [0]]), g, lab)
    star = EmbeddedGraph.from_rotations([[1, 2, 3], [0], [0], [0]])
    codec_mod._check_source(rows_to_darts([[3, 1, 2], [0], [0], [0]]), star, [0, 1, 2, 3])
    for rows, graph, labeling, message in (
        ([[2, 3, 2], [], [0, 0], [0]], g, lab, "one entry per dart"),
        ([[1, 3, 2], [0], [0], [0]], star, [0, 1, 2, 3], "differs from node 0"),
        ([[2], [2], [0, 1], []], g, lab, "differs from node"),
    ):
        with pytest.raises(ChecksFailed, match=message):
            codec_mod._check_source(rows_to_darts(rows), graph, labeling)
    for labeling in ([2, 0, 3, 3], [2, 0, 3]):
        with pytest.raises(ChecksFailed, match="not a bijection"):
            codec_mod._check_source(good, g, labeling)


def test_encode_gathers_each_part_neighborhood_once(monkeypatch):
    # refine finds hook candidates on the center's own darts, and a coarse
    # piece's outside neighborhood is the union of its kernel's and its
    # parts': one set neighborhood per fine part and one per piece kernel.
    calls = Counter()
    levels = []  # (coarse pieces, fine parts) per encoded level
    _count_calls(monkeypatch, EmbeddedGraph, "neighbors_of_set", calls)
    _count_calls(
        monkeypatch, codec_mod, "encode_level", calls,
        record=lambda w, prev, sep, views, nbrs: levels.append((prev.p, sep.p)),
    )
    rng = random.Random(19)
    for class_name, g in (
        ("forest-deg5", EmbeddedGraph.from_rotations(bounded_degree_tree_rotations(2000, rng))),
        ("plane-triangulation", random_planar_embedded(400, 1.0, rng)),
        ("plane-connected", random_planar_embedded(400, 3 / 399, rng)),
    ):
        calls.clear()
        levels.clear()
        roundtrip(g, class_name)
        assert levels
        assert calls["neighbors_of_set"] == sum(pieces + parts for pieces, parts in levels)


def test_decoded_bypass_member_is_a_copy():
    g = random_planar_embedded(5, 0.5, random.Random(5))
    res = encode(g, "planar", inline_table=False)
    assert res.stats.levels == (0,)
    want = g.relabel(res.labeling)
    first = decode(res.data)
    first.insert_leaf(0)
    second = decode(res.data)
    assert labeled_equal(second, want)
    assert not labeled_equal(first, second)


# -- encode and decode are linear ------------------------------------------------------


def _library_lines(call):
    """Line events in the library's own source during one call: a count
    that repeats exactly, unlike a timing.  Work inside C built-ins is not
    counted."""
    root = os.path.dirname(codec_mod.__file__)
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(root) else None

    sys.settrace(calls)
    try:
        call()
    finally:
        sys.settrace(None)
    return count


@pytest.mark.parametrize("kind", ["stacked triangulation", "degree-5 tree"])
def test_decode_lines_per_node_stay_flat(kind):
    # The paper's decoder runs in linear time: the library lines a decode
    # executes, per node, stay within 5% from 1,600 to 6,400 nodes.
    per_node = []
    for n in (1600, 6400):
        rng = random.Random(7)
        if kind == "stacked triangulation":
            g, class_name = random_planar_embedded(n, 1.0, rng), "plane-triangulation"
        else:
            g = EmbeddedGraph.from_rotations(bounded_degree_tree_rotations(n, rng))
            class_name = "forest-deg5"
        data = encode(g, class_name, inline_table=False).data
        per_node.append(_library_lines(lambda: decode(data)) / n)
    assert per_node[1] == pytest.approx(per_node[0], rel=0.05)


def test_encode_lines_per_node_stay_flat():
    # The paper's encoder runs in linear time.  A tree is cut in one
    # bottom-up pass, not again at every depth of a recursion, so the
    # library lines a tree encode executes, per node, stay within 5% from
    # 1,600 to 6,400 nodes (166.3 and 165.5 lines; a centroid recursion
    # reads 217.3 and 243.8).
    per_node = []
    for n in (1600, 6400):
        g = EmbeddedGraph.from_rotations(bounded_degree_tree_rotations(n, random.Random(7)))
        encode(g, "forest-deg5", inline_table=False)  # the table is loaded untraced
        lines = _library_lines(lambda: encode(g, "forest-deg5", inline_table=False))
        per_node.append(lines / n)
    assert per_node[1] == pytest.approx(per_node[0], rel=0.05)


# -- components are separated in place --------------------------------------------


def _body_bits(res):
    """The bits of a container's bodies: after its header and table, before
    its padding."""
    st = res.stats
    bits = format(int.from_bytes(res.data, "big"), f"0{8 * len(res.data)}b")
    return bits[st.header_bits + st.table_bits : st.total_bits - st.padding_bits]


@pytest.mark.parametrize("class_name", ["forest-deg5", "planar"])
def test_components_separated_in_place_code_as_their_induced_copies(class_name):
    # Each component of a disconnected input is separated in place, on the
    # input's own rotations, and coded as its induced copy encoded alone:
    # the same body bits (parts, levels and recovery streams) and the same
    # labeling, shifted by the nodes of the bodies before it.
    rng = random.Random(26)
    if class_name == "forest-deg5":
        parts = [bounded_degree_tree_rotations(n, rng) for n in (300, 4, 90, 40, 150, 1)]
    else:
        parts = [
            random_planar_embedded(n, p, rng).to_rotations()
            for n, p in ((200, 3 / 199), (5, 1.0), (120, 1.0), (60, 0.1), (90, 2 / 89))
        ]
    g = interleaved_union(parts, rng)
    res = roundtrip(g, class_name)
    st = res.stats
    assert sum(k > 0 for k in st.levels) == 3
    offset = 0
    alone = []
    for nodes in g.components():
        sub, ids = g.induced(nodes)
        one = encode(sub, class_name, inline_table=False)
        assert [res.labeling[v] - offset for v in ids] == one.labeling
        offset += len(nodes)
        alone.append(one)
    assert _body_bits(res) == "".join(map(_body_bits, alone))
    for field in ("levels", "part_sizes", "part_widths"):
        assert getattr(st, field) == sum((getattr(one.stats, field) for one in alone), ())
    assert st.recovery_bits == sum(one.stats.recovery_bits for one in alone)


def test_separating_many_components_builds_host_scratch_once(monkeypatch):
    # A forest of 120 trees of 80 nodes, each with a level: the host-sized
    # arrays of the separations (degrees, stamps, the node maps of refine)
    # are built once per encode and shared by the components.  Built per
    # component, they would make encode quadratic in the component count.
    rng = random.Random(80)
    g = interleaved_union([bounded_degree_tree_rotations(80, rng) for _ in range(120)], rng)
    built = Counter()
    for owner in (separation_mod.Scratch, planar_sep_mod.Stamps):
        init = owner.__init__

        def counted(self, host_or_n, _init=init, _name=owner.__name__):
            built[_name] += 1
            _init(self, host_or_n)

        monkeypatch.setattr(owner, "__init__", counted)
    monkeypatch.setattr(
        separation_mod, "Counter", lambda *a: built.update(["Counter"]) or Counter(*a)
    )
    fresh = []  # per part_of call, whether it built a host-sized list
    part_of = separation_mod.Separation.part_of
    monkeypatch.setattr(
        separation_mod.Separation, "part_of",
        lambda sep, out=None: fresh.append(out is None) or part_of(sep, out),
    )
    res = roundtrip(g, "forest-deg5")
    assert res.stats.levels == (1,) * 120
    assert built == {"Scratch": 1, "Stamps": 1, "Counter": 1}
    assert fresh == [False] * 120


# -- structural fuzz of the inline table section ---------------------------------


def _table_fields(data):
    """Bit spans (start, end) inside a container's inline table section:
    each member count and each member code."""
    bits = BitString.from_bytes(data, 8 * len(data))
    r = bit_reader(bits, stats(data).header_bits)
    fields = {"start": r.pos, "count": [], "code": []}
    for _ in range(TABLE_CAP):
        start = r.pos
        count = r.read_uint()
        fields["count"].append((start, r.pos))
        for _ in range(count):
            start = r.pos
            table_mod.read_graph(r)
            fields["code"].append((start, r.pos))
    fields["end"] = r.pos
    return bits, fields


def _splice(bits, start, end, new):
    return (bits.slice(0, start) + new + bits.slice(end, len(bits) - end)).to_bytes()


def _table_mutations(data):
    bits, fields = _table_fields(data)
    table_start = fields["start"]
    out = []
    codes = fields["code"]
    for k in (0, len(codes) // 2, len(codes) - 1):
        start, end = codes[k]
        for pos in (start, (start + end) // 2, end - 1):
            flipped = bits.uint_at(pos, 1) ^ 1
            out.append(_splice(bits, pos, pos + 1, BitString(flipped, 1)))
    for m in (1, TABLE_CAP // 2, TABLE_CAP):
        start, end = fields["count"][m - 1]
        count = bit_reader(bits, start).read_uint()
        for c in (count + 1, max(count - 1, 0), 0):
            if c != count:
                out.append(_splice(bits, start, end, uint_bits(c)))
    for cut in (table_start, (table_start + fields["end"]) // 2, fields["end"] - 1):
        out.append(data[: cut // 8])
    return out


def _outcome(data):
    try:
        return decode(data).to_rotations()
    except CodecError:
        return "CodecError"


@pytest.mark.parametrize("class_name", ["forest-deg5", "plane-triangulation"])
def test_inline_table_mutations_decode_alike_with_and_without_held_table(
    class_name, monkeypatch
):
    if class_name == "forest-deg5":
        g = EmbeddedGraph.from_rotations(
            union_rotations([
                bounded_degree_tree_rotations(24, random.Random(71)),
                bounded_degree_tree_rotations(4, random.Random(72)),
            ])
        )
    else:
        g = triangulate(random_planar_embedded(24, 0.4, random.Random(73)))
    data = encode(g, class_name, inline_table=True).data
    mutations = _table_mutations(data)
    assert len(mutations) >= 20 and data not in mutations
    # The process holds the standard table, so an unchanged section is matched.
    assert decode(data).to_rotations() == g.relabel(encode(g, class_name).labeling).to_rotations()
    warm = [_outcome(d) for d in mutations]
    monkeypatch.setattr(table_mod, "_TABLE_MEMO", {})
    cold = [_outcome(d) for d in mutations]
    assert warm == cold
    assert "CodecError" in warm


# -- structural fuzz of contour-coded parts -------------------------------------


def _plain_part_fields(data):
    """Bit spans in a one-component container whose first part is a contour
    code: its size field and, per component of the part graph, its flag bit,
    its edge count field (start, end, value), its symbol run and symbols."""
    bits = BitString.from_bytes(data, 8 * len(data))
    st = stats(data)
    r = bit_reader(bits, st.header_bits + st.table_bits)
    if r.read_uint():  # level count
        r.read_uint()  # part count
    start = r.pos
    m = r.read_uint()
    assert m > TABLE_CAP
    fields = {"size": (start, r.pos), "comps": []}
    nodes = 0
    while nodes < m:
        flag = r.pos
        width = 1 + r.read_bit()
        start = r.pos
        e = r.read_uint()
        run = (r.pos, r.pos + 2 * e * width)
        symbols = r.read_uints(width, 2 * e)
        nodes += 1 + symbols.count(0)
        fields["comps"].append(
            {"flag": flag, "edges": (start, run[0], e), "run": run,
             "width": width, "symbols": symbols}
        )
    fields["end"] = r.pos
    return bits, m, fields


def _plain_part_mutations(data):
    bits, m, fields = _plain_part_fields(data)
    out = []
    start, end = fields["size"]
    for size in (m + 1, m - 1, 0, TABLE_CAP, len(bits), 1 << 40):
        out.append(_splice(bits, start, end, uint_bits(size)))
    comps = fields["comps"]
    for comp in {id(c): c for c in (comps[0], comps[len(comps) // 2], comps[-1])}.values():
        flag = comp["flag"]
        out.append(_splice(bits, flag, flag + 1, BitString(1 - bits[flag], 1)))
        start, end, e = comp["edges"]
        for new in (e + 1, e - 1, 0, 1 << 40):
            if 0 <= new != e:
                out.append(_splice(bits, start, end, uint_bits(new)))
    big = max(comps, key=lambda c: len(c["symbols"]))
    width, symbols = big["width"], big["symbols"]
    for k in (0, len(symbols) // 2, len(symbols) - 1):
        pos = big["run"][0] + k * width
        for new in range(1 << width):
            if new != symbols[k]:
                out.append(_splice(bits, pos, pos + width, BitString(new, width)))
    first = fields["size"][1]
    for cut in (first, (first + fields["end"]) // 2, fields["end"] - 1):
        out.append(data[: cut // 8])
    return out


@pytest.mark.parametrize("n", [20, 50])
def test_plain_part_mutations_raise_only_codec_error(n, fine_schedule):
    # 20 nodes: the component is one contour-coded part; 50 nodes: the first
    # part of a level is one.  Each of the size field, the flag and edge
    # count of three components, and three symbols of the longest run is
    # changed, and the part is cut short three times.
    g = random_planar_embedded(n, 0.5, random.Random(50))
    data = encode(g, "planar", inline_table=False).data
    mutations = _plain_part_mutations(data)
    assert len(mutations) >= 20 and data not in mutations
    outcomes = Counter()
    for mutated in mutations:
        t0 = time.perf_counter()
        outcome = _outcome(mutated)
        # A container of a few hundred bytes decodes in milliseconds; the
        # bound leaves room for a loaded machine, not for a long loop.
        assert time.perf_counter() - t0 < 1.0
        outcomes[outcome == "CodecError"] += 1
    assert outcomes[True] >= len(mutations) - 3


def _malformed_symbols(symbols, kind):
    """A copy of one component's contour symbols with one malformation.
    "label out of range" adds a tree edge down to a node past the declared
    count, "asymmetric" opens non-tree edges that never close (an edge
    written at one end only)."""
    if kind == "label out of range":
        return symbols + [0, 1]
    if kind == "self-loop":  # a non-tree edge opened and closed at the root
        return symbols + [2, 3]
    if kind == "repeated neighbor":
        # A leaf's tree edge again as a non-tree edge, opened last at the
        # leaf and closed first at its parent.
        up = symbols.index(1)
        return symbols[:up] + [2, 1, 3] + symbols[up + 1 :]
    if kind == "asymmetric":
        return symbols + [2, 2]
    if kind == "root close":
        return symbols + [1, 0]
    assert kind == "close with nothing open"
    return [3, 2] + symbols


@pytest.mark.parametrize(
    "kind",
    [
        "label out of range",
        "self-loop",
        "repeated neighbor",
        "asymmetric",
        "root close",
        "close with nothing open",
        "too few nodes",
        "truncated run",
    ],
)
@pytest.mark.parametrize("n,levels", [(20, 0), (50, 1)])
def test_malformed_plain_part_raises_codec_error(kind, n, levels, fine_schedule):
    # 20 nodes: the component is one contour-coded part, built on its own;
    # 50 nodes: the part is spliced into a level's piece, which is built
    # instead.  The longest component's symbols are rewritten under a
    # recomputed flag and edge count; "truncated run" keeps the symbols and
    # declares a run longer than the container, and "too few nodes" keeps
    # them and declares one node more than they hold.
    g = random_planar_embedded(n, 0.5, random.Random(50))
    data = encode(g, "planar", inline_table=False).data
    assert stats(data).levels == (levels,)
    bits, m, fields = _plain_part_fields(data)
    big = max(fields["comps"], key=lambda c: len(c["symbols"]))
    w = BitWriter()
    w.write_uint(m + 1 if kind == "too few nodes" else m)
    for comp in fields["comps"]:
        symbols, edges = comp["symbols"], None
        if comp is big and kind == "truncated run":
            edges = len(bits)
        elif comp is big and kind != "too few nodes":
            symbols = _malformed_symbols(symbols, kind)
        cyclic = max(symbols, default=0) > 1
        w.write_bit(cyclic)
        w.write_uint(len(symbols) // 2 if edges is None else edges)
        w.write_uints(symbols, 2 if cyclic else 1)
    t0 = time.perf_counter()
    with pytest.raises(CodecError):
        decode(_splice(bits, fields["size"][0], fields["end"], w.build()))
    assert time.perf_counter() - t0 < 1.0


def _forged(class_name, n, write_body):
    """A one-component by-reference container of the class, declaring n
    nodes and genus 0, whose body ``write_body(w)`` writes."""
    w = BitWriter()
    w.write_uint_bits(MAGIC, 24)
    w.write_uint(FORMAT_VERSION)
    w.write_bit(0)
    w.write_uint(CLASS_ORDER.index(class_name))
    w.write_uint(n)
    w.write_uint(0)  # genus
    w.write_uint(1)  # components
    write_body(w)
    return w.build().to_bytes()


def _contour_body(m, symbols):
    """A body of no level whose one part is a contour code of m nodes."""

    def write(w):
        w.write_uint(0)  # no level
        w.write_uint(m)
        cyclic = max(symbols, default=0) > 1
        w.write_bit(cyclic)
        w.write_uint(len(symbols) // 2)
        w.write_uints(symbols, 2 if cyclic else 1)

    return write


def _doubled_skeleton_body(w):
    """A body of one level over the triangle 0-1-2.  Its one fine part is
    the table's triangle, boundary nodes 0 and 1 mapped to the piece's two
    kernel nodes, so the part's edge between them repeats the kernel
    skeleton edge 0-1."""
    table = build_table("planar")
    m, idx = table.index_of(EmbeddedGraph.from_rotations([[1, 2], [2, 0], [0, 1]]))
    w.write_uint(1)  # one level
    w.write_uint(1)  # one part
    w.write_uint(m)
    w.write_uint_bits(idx, table.width(m))
    w.write_uint(1)  # one piece
    for size in (1, 2, 1, 0):  # parts, kernel, interior, boundary
        w.write_uint(size)
    for y in (1, 0):  # the skeleton rows of kernel nodes 0 and 1
        w.write_uint(1)
        w.write_uint_bits(y, 2)
    w.write_uint(2)  # the part's boundary rows: 0 -> 0, 1 -> 1
    w.write_uints([0 << 2 | 0, 1 << 2 | 1], 4)
    triples = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0)]
    w.write_uint(len(triples))
    w.write_uints([y for t in triples for y in t], 2)


@pytest.mark.parametrize(
    "class_name,n,write_body,message",
    [
        # 2^27 nodes declared, one edge: refused by the node count, with
        # no array of 2^27 entries allocated.
        ("forest-deg5", 2, _contour_body(1 << 27, [0, 1]), "not the declared 134217728"),
        # A path 0-...-7 with a non-tree edge opened and closed at node 3.
        ("planar", 8, _contour_body(8, [0, 0, 0, 2, 3, 0, 0, 0, 0] + [1] * 7),
         "self-loop at node 3"),
        # A path 0-...-7 whose non-tree edge from node 4 closes at its
        # parent 3, doubling the tree edge 3-4.
        ("planar", 8, _contour_body(8, [0, 0, 0, 0, 2, 0, 0, 0, 1, 1, 1, 1, 3, 1, 1, 1]),
         "repeats neighbor 4 at node 3"),
        # Both ends of the doubled edge are spliced, and a head met twice
        # among a node's cells cannot be cut into runs.
        ("planar", 3, _doubled_skeleton_body, "splice"),
    ],
    ids=["2^27 nodes, one edge", "loop", "doubled tree edge", "part edge repeats skeleton"],
)
def test_hostile_dart_codes_raise_codec_error(class_name, n, write_body, message):
    # Decode reads every part straight into half-edge arrays, whose twins
    # come from the codes; each of these parses as far as the arrays and is
    # refused there or when the graph is checked to be simple.
    data = _forged(class_name, n, write_body)
    t0 = time.perf_counter()
    with pytest.raises(CodecError, match=message):
        decode(data)
    with pytest.raises(CodecError, match=message):
        stats(data)
    assert time.perf_counter() - t0 < 1.0


# -- structural fuzz of level streams --------------------------------------------


def _level_fields(data):
    """Bit spans (start, end, value) of uint fields in the level streams of
    a one-component by-reference container, keyed (stream, piece, name) with
    stream 0 the finest: each stream's piece count and, of its first piece,
    the four sizes, the first skeleton degree, the first boundary-map row
    count and the triple count.  The finest stream's last piece gives the
    same seven fields when it is not its first."""
    bits = BitString.from_bytes(data, 8 * len(data))
    st = stats(data)
    table = build_table(st.class_name)
    r = bit_reader(bits, st.header_bits + st.table_bits)
    nlevels = r.read_uint()
    assert nlevels
    acc = {"part_code": 0, "part_sizes": [], "part_widths": [], "covered": 0}
    # A decoded part is (node_of, nxt, first), one ``first`` entry per node.
    sizes = [len(codec_mod._decode_part(r, table, acc)[2]) for _ in range(r.read_uint())]
    fields = {}

    def field(key):
        start = r.pos
        value = r.read_uint()
        fields.setdefault(key, (start, r.pos, value))
        return value

    last = 0  # the finest stream's last piece
    for level in range(nlevels):
        npieces = field((level, 0, "pieces"))
        if not level:
            last = npieces - 1
        coarse = []
        for j in range(npieces):
            ni, nw, nv, nb = (
                field((level, j, name)) for name in ("parts", "kernel", "interior", "boundary")
            )
            width = ceil_log2(nw + nv + nb)
            for _ in range(nw + nb):
                degree = field((level, j, "degree"))
                r.pos += degree * width
            for size in sizes[:ni]:
                rows = field((level, j, "rows"))
                r.pos += rows * (ceil_log2(size) + width)
            sizes = sizes[ni:]
            triples = field((level, j, "triples"))
            r.pos += 3 * triples * width
            coarse.append(nw + nv + nb)
        assert not sizes
        sizes = coarse
    assert r.pos == st.total_bits - st.padding_bits
    return bits, {
        key: span for key, span in fields.items() if key[1] == 0 or key[:2] == (0, last)
    }


@pytest.mark.parametrize("levels", [1, 2])
def test_level_stream_mutations_raise_only_codec_error(levels, monkeypatch):
    # Each uint field of the first piece of every level stream, and of the
    # last piece of the finest one, moved by one either way and set to
    # 2^40.  With two levels the decoder replays two streams: the second
    # (coarse) one is spliced from pieces the first rebuilt.
    if levels == 2:
        schedule = separation_mod.level_schedule
        finer = LevelProfile(r=5, cap=4)
        monkeypatch.setattr(separation_mod, "level_schedule", lambda n: schedule(n) + [finer])
    g = random_planar_embedded(120, 0.3, random.Random(120))
    data = encode(g, "planar", inline_table=False).data
    assert stats(data).levels == (levels,)
    bits, fields = _level_fields(data)
    # At one level, one piece is the whole component.  At two, the finest
    # stream has two pieces, which the coarse stream splices into one.
    pieces = {(0, 0)} if levels == 1 else {(0, 0), (0, 1), (1, 0)}
    assert {key[:2] for key in fields} == pieces
    assert len(fields) == 8 * len(pieces) - (levels == 2)
    for key, (start, end, value) in fields.items():
        for new in (value + 1, value - 1, 1 << 40):
            if new < 0:
                continue
            mutated = _splice(bits, start, end, uint_bits(new))
            t0 = time.perf_counter()
            outcome = _outcome(mutated)
            # A container of a few hundred bytes decodes in milliseconds.
            assert time.perf_counter() - t0 < 1.0
            assert outcome == "CodecError", (key, value, new)


def test_bodies_after_the_first_decode_at_their_offset(fine_schedule, monkeypatch):
    # The last level of a body writes its labels at the body's node offset.
    # Here the two-level and the one-level body both follow a no-level one:
    # a 5-node table member, then a 120-node graph that gets a second, finer
    # level, then a 40-node one.
    schedule = separation_mod.level_schedule
    finer = LevelProfile(r=5, cap=4)
    monkeypatch.setattr(
        separation_mod, "level_schedule", lambda n: schedule(n) + [finer] * (n >= 100)
    )
    parts = [
        random_planar_embedded(n, 0.3, random.Random(240 + n)).to_rotations()
        for n in (5, 120, 40)
    ]
    g = EmbeddedGraph.from_rotations(union_rotations(parts))
    res = roundtrip(g, "planar")
    assert res.stats.levels == (0, 2, 1)
    assert stats(res.data) == res.stats
    # The span of the second body's coarse (last) level stream.
    st = res.stats
    bits = BitString.from_bytes(res.data, 8 * len(res.data))
    table = build_table("planar")
    acc = {"levels": [], "recovery": 0, "part_code": 0,
           "part_sizes": [], "part_widths": [], "covered": 0}
    r = bit_reader(bits, st.header_bits + st.table_bits)
    codec_mod._decode_body(r, table, acc)
    assert r.read_uint() == 2
    fine = [codec_mod._decode_part(r, table, acc) for _ in range(r.read_uint())]
    fine = decode_level_from(r, fine)
    start = r.pos
    (body,) = decode_level_from(r, fine, 5)
    end = r.pos
    assert sorted(v for row in darts_to_rows(body) for v in row) == sorted(
        v for row in g.relabel(res.labeling).to_rotations()[5:125] for v in row
    )
    flips = random.Random(241).sample(range(start, end), min(300, end - start))
    for pos in flips:
        mutated = _splice(bits, pos, pos + 1, BitString(1 - bits[pos], 1))
        t0 = time.perf_counter()
        assert _outcome(mutated) == "CodecError", pos - start
        assert time.perf_counter() - t0 < 1.0


# -- structural fuzz of body boundaries ------------------------------------------


def _body_fields(data):
    """Per component body of a by-reference container: its start, and the
    spans (start, end, value) of its level count, of its part count where it
    has levels, and of its first part's size."""
    bits = BitString.from_bytes(data, 8 * len(data))
    st = stats(data)
    table = build_table(st.class_name)
    r = bit_reader(bits, st.header_bits + st.table_bits)
    acc = {"levels": [], "recovery": 0, "part_code": 0,
           "part_sizes": [], "part_widths": [], "covered": 0}
    bodies = []

    def field():
        at = r.pos
        value = r.read_uint()
        fields.append((at, r.pos, value))
        return value

    for _ in range(st.components):
        start = r.pos
        fields = []
        if field():  # level count
            field()  # part count
        field()  # first part size
        r.pos = start
        codec_mod._decode_body(r, table, acc)
        bodies.append((start, fields))
    assert r.pos == st.total_bits - st.padding_bits
    return bits, st, bodies


def test_body_boundary_mutations_raise_codec_error_or_keep_the_header():
    # A forest of trees of at most 6 nodes (one table code each), of 11 to
    # 25 (one contour-coded part each) and of at least 200 (separation
    # levels).  In every body the level count, the part count where there
    # is one, and the first part size are moved by one either way and set
    # to 2^40; then the container is cut at every body boundary.
    sizes = (1, 4, 6, 12, 25, 200, 2, 17, 240)
    g = EmbeddedGraph.from_rotations(
        union_rotations(
            [bounded_degree_tree_rotations(n, random.Random(80 + n)) for n in sizes]
        )
    )
    data = roundtrip(g, "forest-deg5").data
    bits, st, bodies = _body_fields(data)
    assert [m for m in st.part_sizes if m > TABLE_CAP][:2] == [12, 25]
    assert st.levels[:5] == (0,) * 5 and min(st.levels[5], st.levels[-1]) >= 1
    mutations = []
    for _start, fields in bodies:
        for start, end, value in fields:
            for new in (value + 1, value - 1, 1 << 40):
                if new >= 0:
                    mutations.append(_splice(bits, start, end, uint_bits(new)))
    assert len(mutations) >= 5 * len(bodies)
    kept = 0
    for mutated in mutations:
        t0 = time.perf_counter()
        try:
            out = decode(mutated)
        except CodecError:
            pass
        else:
            assert (out.n, out.euler()[1]) == (st.n, st.components)
            kept += 1
        assert time.perf_counter() - t0 < 1.0
    assert kept < len(mutations) // 4
    for start, _fields in bodies:
        with pytest.raises(CodecError):
            decode(bits.slice(0, start).to_bytes())


# -- plain parts are written from host rows ----------------------------------------


@strategies.composite
def _host_and_part(draw):
    """A host (stacked or thinned triangulation, degree-5 tree, grid, a
    forest with isolated nodes, or a torus grid) and a part of it: a random
    node set, the ring of a node's neighbors, or a breadth-first ball.
    Rings and balls have boundary nodes next to several part nodes; a
    forest's random node sets give part graphs of several components and
    isolated nodes, and a torus grid's part graphs may not be plane."""
    kind = draw(strategies.sampled_from(["stacked", "thinned", "tree", "grid", "forest", "torus"]))
    n = draw(strategies.integers(4, 60))
    rng = random.Random(draw(strategies.integers(0, 1 << 16)))
    if kind == "stacked":
        g = random_planar_embedded(n, 1.0, rng)
    elif kind == "thinned":
        g = random_planar_embedded(n, 0.3, rng)
    elif kind == "tree":
        g = EmbeddedGraph.from_rotations(bounded_degree_tree_rotations(n, rng))
    elif kind == "grid":
        g = EmbeddedGraph.from_rotations(grid_rotations(n // 8 + 1, 8))
    elif kind == "forest":
        sizes = [rng.randint(1, 4) for _ in range(n // 2)]
        g = EmbeddedGraph.from_rotations(
            union_rotations([bounded_degree_tree_rotations(k, rng) for k in sizes])
        )
    else:
        g = EmbeddedGraph.from_rotations(torus_grid_rotations(n // 12 + 3))
    v = draw(strategies.integers(0, g.n - 1))
    shape = draw(strategies.sampled_from(["set", "ring", "ball"]))
    if shape == "set":
        part = {v} | draw(strategies.sets(strategies.integers(0, g.n - 1)))
    elif shape == "ring":
        part = set(g.neighbors(v)) or {v}
    else:
        part = {v}
        for _ in range(draw(strategies.integers(1, 3))):
            part |= g.neighbors_of_set(part)
    return g, sorted(part)


def _contour_or_refusal(write):
    """The bits and return value of a contour writer, or its ChecksFailed
    message."""
    w = BitWriter()
    try:
        out = write(w)
    except ChecksFailed as exc:
        return str(exc)
    return w.build(), out


@settings(max_examples=200, deadline=None)
@given(_host_and_part())
def test_part_writer_matches_the_part_graph_oracle(case):
    g, part = case
    pg = part_graph(g, part)
    ids, boundary, rows = g.part_rows(part)
    assert (boundary, ids) == (pg.boundary, pg.ids)
    # A table part's graph is built from the rows with the oracle's darts.
    built = EmbeddedGraph.from_rotations(rows)
    assert (built.n, built.node_of, built.nxt, built.first) == (
        pg.graph.n, pg.graph.node_of, pg.graph.nxt, pg.graph.first,
    )
    # On a connected part graph, as every one the codec writes is, the host
    # writer walks g's darts and writes the contour code of the oracle
    # graph's rows, read from each node's first dart, at any size: the view
    # follows the code's preorder.  A part graph that is not plane is
    # refused by both with the same message.
    h = pg.graph
    oracle_rows = [
        [h.head(d) for d in h.rotation_from(h.first[v])] if h.first[v] >= 0 else []
        for v in range(h.n)
    ]
    want = _contour_or_refusal(lambda w: write_contour_into(w, oracle_rows))
    nbrs = g.neighbors_of_set(part)
    got = _contour_or_refusal(lambda w: write_part_contour_into(w, g, part, nbrs))
    comps = h.components()
    if len(comps) > 1:
        # A disconnected one is refused once the DFS has walked the
        # component of its smallest node, unless that is not plane.
        if h.induced(comps[0])[0].genus() > 0:
            assert "is not plane" in got
        else:
            assert got == (
                f"part graph of {h.n} nodes is not connected: its DFS reaches {len(comps[0])}"
            )
    elif isinstance(want, str):
        assert h.genus() > 0 and "is not plane" in want
        assert got == want
    else:
        bits, order = want
        pre = [0] * h.n
        for i, v in enumerate(order):
            pre[v] = i
        view = ([pg.ids[v] for v in order], frozenset(pre[b] for b in pg.boundary))
        assert got == (bits, view)
        decoded = darts_to_rows(read_contour(bit_reader(bits)))
        assert labeled_equal(EmbeddedGraph.from_rotations(decoded), h.relabel(pre))
    if h.n > TABLE_CAP:  # the part writer codes it so, into the same bits
        args = (g, part, nbrs, build_table("planar"))
        assert _contour_or_refusal(lambda w: codec_mod._encode_part(w, *args)) == (
            got if isinstance(got, str) else (got[0], PartView(got[1][1], got[1][0]))
        )


def test_encode_body_names_a_part_that_is_not_plane():
    # A 4 x 4 torus grid has 16 nodes, where no level binds: it is one part,
    # and its contour symbols cannot nest.
    g = EmbeddedGraph.from_rotations(torus_grid_rotations(4))
    assert g.genus() == 1
    with pytest.raises(ChecksFailed, match=r"finest part 0 \(16 nodes\).*not plane"):
        codec_mod._encode_body(
            BitWriter(), g, list(range(g.n)), build_table("planar"), 1, Scratch(g)
        )


# -- stats ------------------------------------------------------------------


def layer_sum(st):
    return (
        st.header_bits
        + st.table_bits
        + st.prefix_bits
        + st.part_code_bits
        + st.fix_bits
        + st.recovery_bits
        + st.padding_bits
    )


@pytest.mark.parametrize("inline", [False, True])
def test_stats_layers_sum_to_total(inline):
    g = random_planar_embedded(35, 0.5, random.Random(70))
    res = encode(g, "planar", inline_table=inline)
    st = stats(res.data)
    assert st == res.stats
    assert layer_sum(st) == st.total_bits == 8 * len(res.data)
    assert st.padding_bits < 8
    assert st.n == g.n and st.class_name == "planar" and st.genus == 0


def test_stats_covered_nodes_and_widths(fine_schedule):
    g = random_planar_embedded(40, 0.5, random.Random(71))
    res = encode(g, "planar", inline_table=False)
    st = res.stats
    # A part graph holds its part and the part's boundary in the center, so
    # coverage counts some nodes twice and others (the rest of the center)
    # not at all; no completion adds a node, so each part decodes to m nodes.
    assert 0 < st.covered_nodes == sum(st.part_sizes)
    assert len(st.part_sizes) == len(st.part_widths)
    table = build_table("planar")
    sizes = Counter(m <= TABLE_CAP for m in st.part_sizes)
    assert sizes[True] and sizes[False]
    for m, w in zip(st.part_sizes, st.part_widths):
        # A table index, or a contour code: at least one symbol down and one
        # up for each node but a component's root, whose flag and edge count
        # take two bits or more.
        assert w == table.width(m) if m <= TABLE_CAP else w >= 2 * m
    assert st.part_code_bits == sum(st.part_widths)


def test_stats_fix_bits_are_always_zero():
    # No part carries a fix, not even a table code of a class whose parts
    # were once completed: a component within the table cap is one.
    c = random_planar_embedded(6, 0.4, random.Random(72))
    assert c.connected
    res = encode(c, "plane-connected", inline_table=False)
    assert res.stats.part_sizes == (6,) and res.stats.fix_bits == 0
    t = triangulate(c)
    res = encode(t, "plane-triangulation", inline_table=False)
    assert res.stats.part_sizes and res.stats.fix_bits == 0
    g = random_planar_embedded(25, 0.5, random.Random(73))
    res = encode(g, "planar", inline_table=False)
    assert res.stats.fix_bits == 0


def test_levels_follow_schedule():
    g = random_planar_embedded(80, 0.5, random.Random(74))
    res = roundtrip(g, "planar")
    # one entry per component, in order of smallest node
    want = tuple(
        len(level_schedule(len(nodes))) if len(nodes) > TABLE_CAP else 0
        for nodes in g.components()
    )
    assert res.stats.levels == want
    assert res.stats.levels[0] >= 1


# -- encode-side rejection ---------------------------------------------------


def test_encode_not_in_class():
    with pytest.raises(NotInClass):
        encode(EmbeddedGraph.from_rotations(K5_GENUS1), "planar")
    star6 = EmbeddedGraph.from_rotations([[1, 2, 3, 4, 5, 6]] + [[0]] * 6)
    with pytest.raises(NotInClass):
        encode(star6, "forest-deg5")
    square = EmbeddedGraph.from_rotations([[1, 3], [0, 2], [1, 3], [2, 0]])
    with pytest.raises(NotInClass):
        encode(square, "plane-triangulation")
    two_nodes = EmbeddedGraph.from_rotations([[], []])
    with pytest.raises(NotInClass):
        encode(two_nodes, "plane-connected")


def test_encode_refuses_positive_genus_in_every_class():
    # Every class is plane: an embedding of positive genus is no member.
    for rows, genus in ((K5_GENUS1, 1), (K5_GENUS2, 2), (K7_TORUS, 1), (K7_GENUS6, 6)):
        g = EmbeddedGraph.from_rotations(rows)
        assert g.genus() == genus
        for class_name in CLASS_ORDER:
            with pytest.raises(NotInClass):
                encode(g, class_name)


# -- decode-side rejection ----------------------------------------------------


def small_container(**kw):
    g = random_planar_embedded(12, 0.5, random.Random(90))
    return encode(g, "planar", inline_table=False, **kw).data


def craft(class_id=0, n=3, genus=0, ncomp=1, bodies=(), *, version=FORMAT_VERSION,
          magic=MAGIC, inline=None):
    """Hand-assemble a container around the given bodies (BitStrings),
    written one after another."""
    w = BitWriter()
    w.write_uint_bits(magic, 24)
    w.write_uint(version)
    w.write_bit(0 if inline is None else 1)
    w.write_uint(class_id)
    w.write_uint(n)
    w.write_uint(genus)
    w.write_uint(ncomp)
    if inline is not None:
        w.write_bits(inline.serialize())
    for body in bodies:
        w.write_bits(body)
    return w.build().to_bytes()


def body_bits(table, g):
    """A valid one-part body for a table member."""
    m, idx = table.index_of(g)
    w = BitWriter()
    w.write_uint(0)
    w.write_uint(m)
    w.write_uint_bits(idx, table.width(m))
    return w.build()


def test_decode_bad_magic_version_class():
    with pytest.raises(CodecError):
        decode(craft(magic=MAGIC ^ 1))
    with pytest.raises(CodecError):
        decode(craft(version=FORMAT_VERSION + 1))
    with pytest.raises(CodecError):
        decode(craft(class_id=len(CLASS_ORDER)))


def test_decode_truncated_everywhere():
    data = small_container()
    for k in range(len(data)):
        with pytest.raises(CodecError):
            decode(data[:k])


def test_decode_bit_flips_never_crash():
    data = small_container()
    for bitpos in range(8 * len(data)):
        mutated = bytearray(data)
        mutated[bitpos // 8] ^= 0x80 >> (bitpos % 8)
        try:
            decode(bytes(mutated))
        except CodecError:
            pass  # rejection is the expected outcome


def test_decode_header_count_mismatches():
    table = build_table("planar")
    p3 = EmbeddedGraph.from_rotations([[1], [0, 2], [1]])
    body = body_bits(table, p3)
    assert decode(craft(n=3, bodies=(body,))).n == 3
    with pytest.raises(CodecError):
        decode(craft(n=4, bodies=(body,)))  # node count lies
    with pytest.raises(CodecError):
        decode(craft(n=3, genus=1, bodies=(body,)))  # genus lies
    with pytest.raises(CodecError):
        decode(craft(n=3, ncomp=0, bodies=(body,)))  # components inconsistent
    with pytest.raises(CodecError):
        decode(craft(n=0, ncomp=1, bodies=(body,)))
    with pytest.raises(CodecError):
        decode(craft(n=6, ncomp=3, bodies=(body, body)))  # component count lies


def test_decode_body_field_ranges():
    table = build_table("planar")

    def body(*writes):
        w = BitWriter()
        for kind, val in writes:
            if kind == "uint":
                w.write_uint(val)
            else:
                w.write_uint_bits(*val)
        return w.build()

    with pytest.raises(CodecError):  # a plain part without its rows
        decode(craft(n=7, bodies=(body(("uint", 0), ("uint", 7)),)))
    with pytest.raises(CodecError):  # an empty part
        decode(craft(n=1, bodies=(body(("uint", 0), ("uint", 0)),)))
    with pytest.raises(CodecError):  # member index out of range
        bad = body(("uint", 0), ("uint", 5), ("bits", (table.num(5), table.width(5))))
        decode(craft(n=5, bodies=(bad,)))
    with pytest.raises(CodecError):  # level count out of range
        decode(craft(n=9, bodies=(body(("uint", 65),),)))
    with pytest.raises(CodecError):  # no parts, and the level stream is missing
        decode(craft(n=9, bodies=(body(("uint", 1), ("uint", 0)),)))


def test_decode_disconnected_member_rejected():
    # No table holds a disconnected member, but an inline table section is
    # read as it is: a forged one whose size-2 member is two isolated nodes
    # decodes to a graph of two components under a header that says one.
    planar = build_table("planar")
    two_isolated = EmbeddedGraph.from_rotations([[], []])
    members = [list(codes) for codes in planar._members]
    members[2] = [write_graph(two_isolated)]
    forged = ClassTable(planar.gclass, members)
    body = body_bits(forged, two_isolated)
    with pytest.raises(CodecError, match="component count"):
        decode(craft(n=2, inline=forged, bodies=(body,)))


def test_decode_trailing_data_rejected():
    data = small_container()
    with pytest.raises(CodecError):
        decode(data + b"\x00")  # eight zero bits cannot be padding
    st = stats(data)
    if st.padding_bits:  # make a padding bit nonzero
        mutated = bytearray(data)
        mutated[-1] |= 1
        with pytest.raises(CodecError):
            decode(bytes(mutated))


def test_decode_refuses_a_spare_bit_between_bodies():
    table = build_table("planar")
    p2 = EmbeddedGraph.from_rotations([[1], [0]])
    good = body_bits(table, p2)
    assert decode(craft(n=4, ncomp=2, bodies=(good, good))).n == 4
    for spare in (BitString(0, 1), BitString(1, 1)):
        with pytest.raises(CodecError):
            decode(craft(n=4, ncomp=2, bodies=(good, spare, good)))


@pytest.mark.parametrize("name", CLASS_ORDER)
def test_decode_rejects_ref_cap_above_standard(name, monkeypatch):
    # A by-reference container names no cap: the decoder builds the standard
    # table of the header's class, so no container can make it enumerate a
    # larger one.  A cap field where the body belongs is misread as a body.
    built = []
    real_build = codec_mod.build_table
    monkeypatch.setattr(
        codec_mod, "build_table", lambda *a, **kw: built.append(a) or real_build(*a, **kw)
    )
    rows = [[1], [0, 2], [1]] if name == "forest-deg5" else [[1, 2], [2, 0], [0, 1]]
    table = build_table(name)
    body = body_bits(table, EmbeddedGraph.from_rotations(rows))
    cid = CLASS_ORDER.index(name)
    assert decode(craft(class_id=cid, bodies=(body,))).n == 3
    assert built == [(name,)]
    with pytest.raises(CodecError):
        decode(craft(class_id=cid, bodies=(uint_bits(TABLE_CAP + 1), body)))


def test_decode_table_section_guards():
    # The header's class names the table, and an inline section is read as
    # that table, whatever it holds.  The decoded graph must still be a
    # member of the header's class.
    planar = build_table("planar")
    tri = CLASS_ORDER.index("plane-triangulation")
    k4 = EmbeddedGraph.from_rotations([[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]])
    assert decode(craft(class_id=tri, n=4, inline=planar, bodies=(body_bits(planar, k4),))).n == 4
    p3 = EmbeddedGraph.from_rotations([[1], [0, 2], [1]])
    with pytest.raises(CodecError, match="class predicate"):
        decode(craft(class_id=tri, n=3, inline=planar, bodies=(body_bits(planar, p3),)))
    forest = CLASS_ORDER.index("forest-deg5")
    triangle = EmbeddedGraph.from_rotations([[1, 2], [2, 0], [0, 1]])
    with pytest.raises(CodecError, match="class predicate"):
        decode(craft(class_id=forest, n=3, inline=planar, bodies=(body_bits(planar, triangle),)))


def _header_field(data, skip):
    """Bit span (start, end) of the uint header field after ``skip`` uints
    that follow the magic (0: version, 1: inline flag and class id)."""
    bits = BitString.from_bytes(data, 8 * len(data))
    r = bit_reader(bits, 24)
    if skip:
        r.read_uint()
        r.read_bit()
    start = r.pos
    r.read_uint()
    return bits, start, r.pos


def test_decode_rejects_a_version_1_container():
    data = encode(random_planar_embedded(30, 0.5, random.Random(93)), "planar").data
    bits, start, end = _header_field(data, 0)
    assert decode(_splice(bits, start, end, uint_bits(FORMAT_VERSION))).n == 30
    with pytest.raises(CodecError):
        decode(_splice(bits, start, end, uint_bits(1)))


# A forest of a 3-node path, a 12-node tree and an isolated node, by table
# reference.  Its version 4 container puts each body behind a segmented
# length prefix; its version 5 container names the table by its cap, 6; its
# version 6 container codes the path by a 2-bit index into a forest table
# that held disjoint unions too.
V4_FOREST = bytes.fromhex("504c432881190e406622e928d0c13a9d68")
V5_FOREST = bytes.fromhex("504c433081190f251a182753ad00")
V6_FOREST = bytes.fromhex("504c4338811924a34304ea75a0")
# The forest both were made from.
LITERAL_FOREST = union_rotations([
    [[1, 2], [0], [0]],
    [[1, 6, 2], [8, 0, 5, 3, 4], [0], [1], [1], [7, 1, 11], [0], [5, 9], [10, 1], [7], [8], [5]],
    [[]],
])


def _forest_by_reference():
    return encode(EmbeddedGraph.from_rotations(LITERAL_FOREST), "forest-deg5", inline_table=False)


def test_decode_rejects_a_version_4_container():
    # Version 4 framed the bodies of a multi-component container with their
    # lengths; later versions write them one after another.  A version 4
    # container is refused at its header, and so are current bodies under
    # a version 4 header.
    data = _forest_by_reference().data
    assert FORMAT_VERSION == 7 and len(data) < len(V4_FOREST)
    v4bits, start, end = _header_field(V4_FOREST, 0)
    assert bit_reader(v4bits, start).read_uint() == 4
    with pytest.raises(CodecError, match="version"):
        decode(V4_FOREST)
    # Under a current header the framing is misread as a body.
    forged = _splice(v4bits, start, end, uint_bits(FORMAT_VERSION))
    assert _outcome(forged) != decode(data).to_rotations()
    bits, start, end = _header_field(data, 0)
    with pytest.raises(CodecError, match="version"):
        decode(_splice(bits, start, end, uint_bits(4)))


def test_decode_rejects_a_version_5_container():
    # Version 5 wrote a by-reference table section as uint(cap); later
    # versions write nothing there, since the header's class names the
    # table.  A version 5 container is refused at its header; under a
    # current header its cap field is misread as a body.
    v5bits, start, end = _header_field(V5_FOREST, 0)
    assert bit_reader(v5bits, start).read_uint() == 5
    with pytest.raises(CodecError, match="version"):
        decode(V5_FOREST)
    forged = _splice(v5bits, start, end, uint_bits(FORMAT_VERSION))
    assert _outcome(forged) != decode(_forest_by_reference().data).to_rotations()
    # Under version 6, and less its cap field, which follows the header's
    # component count, it is the version 6 container bit for bit.
    r = bit_reader(v5bits, end)
    r.read_bit()
    for _ in range(4):  # class, n, genus, components
        r.read_uint()
    cap = r.pos
    assert r.read_uint() == TABLE_CAP
    as_v6 = _splice(v5bits, start, end, uint_bits(6))
    as_v6 = BitString.from_bytes(as_v6, 8 * len(as_v6))
    as_v6 = as_v6.slice(0, cap) + as_v6.slice(r.pos, len(as_v6) - r.pos)
    v6bits = BitString.from_bytes(V6_FOREST, 8 * len(V6_FOREST))
    assert as_v6.slice(0, len(v6bits)) == v6bits


# A by-reference version 6 forest container made by an encoder that
# separated each component's triangulation, not the component itself, under
# a schedule that gave its 40- and 9-node trees a level each: its 17-node
# contour part is a code of several components.
TRIANGULATED_HOST_V6_FOREST = bytes.fromhex(
    "504c433880ce444080788bce53848246d2c2126d3c910587ec10d8013044600a8241f940"
    "071a48e25801484e0f4312006500882080a82d04103184f0818b387380aa2b20c1981"
    "1d490b0642851a141a0"
)


def test_decode_rejects_a_version_6_container():
    for data in (V6_FOREST, TRIANGULATED_HOST_V6_FOREST):
        bits, start, end = _header_field(data, 0)
        assert bit_reader(bits, start).read_uint() == 6
        for parse in (decode, stats):
            with pytest.raises(CodecError, match="unsupported container version"):
                parse(data)
    # Under a current header, the one-COMP contour reader refuses the
    # several-component part.
    bits, start, end = _header_field(TRIANGULATED_HOST_V6_FOREST, 0)
    forged = _splice(bits, start, end, uint_bits(FORMAT_VERSION))
    with pytest.raises(CodecError, match="has 9 nodes, not the declared 17"):
        decode(forged)


@pytest.mark.parametrize("n", [5, 15, 40])
def test_decode_rejects_plane_connected_body_under_triangulation_class(n):
    # Triangulations code against the plane-connected table, and no part
    # carries a fix, so a connected container relabeled as a triangulation
    # parses, be its one part a table code (5 nodes) or a contour code (15
    # and 40), and the class predicate on the decoded graph refuses it.
    g = random_planar_embedded(n, 0.1, random.Random(94 + n))
    assert g.connected and not get_class("plane-triangulation").member(g)
    data = encode(g, "plane-connected", inline_table=False).data
    bits, start, end = _header_field(data, 1)
    assert bit_reader(bits, start).read_uint() == CLASS_ORDER.index("plane-connected")
    forged = _splice(bits, start, end, uint_bits(CLASS_ORDER.index("plane-triangulation")))
    with pytest.raises(CodecError, match="class predicate"):
        decode(forged)


def test_class_ids_are_stable():
    assert CLASS_ORDER == (
        "planar",
        "plane-connected",
        "plane-triangulation",
        "forest-deg5",
    )
