"""Container codec: round-trips, stats accounting, and malformed-input rejection."""

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
    bounded_degree_tree_rotations,
    capped_antiprism_rotations,
    grid_rotations,
    part_graph,
    random_planar_embedded,
    random_tree_rotations,
    torus_grid_rotations,
    wheel_with_tail,
    wheel_with_tails,
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
import plancode.separation as separation_mod
import plancode.table as table_mod
from plancode.bits import BitReader, BitString, BitWriter, ceil_log2
from plancode.codec import _read_fix, _write_fix
from plancode.constants import FORMAT_VERSION, MAGIC, TABLE_CAP
from plancode.embgraph import (
    EmbeddedGraph,
    labeled_equal,
    read_contour,
    triangulate,
    write_contour_into,
)
from plancode.patcher import Fix
from plancode.recovery import PartView
from plancode.separation import LevelProfile, level_schedule
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


def bounded_degree_tree(n, seed, cap=5):
    rng = random.Random(seed)
    while True:
        rows = random_tree_rotations(n, rng)
        if max(len(r) for r in rows) <= cap:
            return rows


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
    # No level binds at 11 to 25 nodes: the component is then one part.
    assert res.stats.levels == (len(level_schedule(n)),)


@pytest.mark.parametrize("n,seed", [(7, 4), (30, 5), (60, 6)])
def test_roundtrip_plane_connected(n, seed):
    g = random_planar_embedded(n, 0.4, random.Random(seed))
    assert g.connected
    roundtrip(g, "plane-connected")


@pytest.mark.parametrize("n,seed", [(8, 7), (20, 8), (40, 9)])
def test_roundtrip_plane_triangulation(n, seed):
    g = triangulate(random_planar_embedded(n, 0.4, random.Random(seed)))
    roundtrip(g, "plane-triangulation")


@pytest.mark.parametrize("n,seed", [(2, 10), (9, 11), (18, 12), (40, 13)])
def test_roundtrip_single_tree(n, seed):
    g = EmbeddedGraph.from_rotations(bounded_degree_tree(n, seed))
    roundtrip(g, "forest-deg5")


def test_roundtrip_forest_components():
    rows = union_rotations(
        [bounded_degree_tree(9, 21), [[]], bounded_degree_tree(12, 23)]
    )
    res = roundtrip(EmbeddedGraph.from_rotations(rows), "forest-deg5")
    assert res.stats.components == 3
    assert len(res.stats.levels) == 3


def test_roundtrip_multicomponent_planar_mixed():
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
def test_roundtrip_small_triangulations(inline):
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
        g = EmbeddedGraph.from_rotations(bounded_degree_tree(20, 20))
    else:
        g = random_planar_embedded(20, 1.0, random.Random(20))
    table = build_table(class_name)
    by_ref = encode(g, class_name, inline_table=False).stats
    inline = encode(g, class_name, inline_table=True)
    st = inline.stats
    assert by_ref.table_bits == 0
    assert st.table_bits == len(table.serialize())
    # The section opens with the count of size-1 members, not a class id.
    r = BitReader(BitString.from_bytes(inline.data, 8 * len(inline.data)), st.header_bits)
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


def test_triangulation_parts_are_stars_coded_by_the_plane_connected_table():
    g = EmbeddedGraph.from_rotations(STACKED_OCTAHEDRON)
    res = roundtrip(g, "plane-triangulation", inline_table=True)
    st = res.stats
    # The one part is the degree-3 node with its three neighbors.
    assert st.levels == (1,) and st.part_sizes == (4,)
    assert st.fix_bits == 0
    table = build_table("plane-connected")
    assert st.part_widths[0] == table.width(4) > 0
    bits = BitString.from_bytes(res.data, 8 * len(res.data))
    assert read_table(BitReader(bits, st.header_bits), "plane-triangulation") is table
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
def test_roundtrip_finest_level_without_parts(rows, class_name):
    g = EmbeddedGraph.from_rotations(rows)
    res = roundtrip(g, class_name)
    assert res.stats.levels == (1,)
    assert res.stats.part_sizes == ()


def test_roundtrip_wheel_6_tail_1_has_parts():
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
    # No level binds at 11 to 25 nodes: the component is one part above the
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


def test_every_finest_part_graph_is_connected(monkeypatch):
    # Each component is separated on its own rotations, so every finest part,
    # one or more pieces of it clustered around one center hook, has a
    # connected part graph, and the connect completion writes only empty
    # fixes.
    written = []  # the rows of every part graph the encoder writes
    part_rows = EmbeddedGraph.part_rows

    def record_rows(graph, part):
        out = part_rows(graph, part)
        written.append(out[2])
        return out

    fixes = []
    complete = codec_mod.complete

    def record_fix(graph, patch):
        out = complete(graph, patch)
        if patch == "connect":
            fixes.append(out[1])
        return out

    monkeypatch.setattr(EmbeddedGraph, "part_rows", record_rows)
    monkeypatch.setattr(codec_mod, "complete", record_fix)
    for class_name, rows in _separated_inputs():
        written.clear()
        res = roundtrip(EmbeddedGraph.from_rotations(rows), class_name)
        assert any(res.stats.levels) and len(written) == len(res.stats.part_sizes)
        assert all(EmbeddedGraph.from_rotations(r).connected for r in written)
    assert fixes
    assert all(not fix.added_nodes and not fix.deleted_edges for fix in fixes)


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
def test_small_shapes_keep_the_contract(inline):
    shapes = Counter()
    for class_name, g in _small_shapes():
        assert get_class(class_name).member(g)
        res = roundtrip(g, class_name, inline_table=inline)
        st = res.stats
        assert layer_sum(st) == st.total_bits == 8 * len(res.data)
        assert st.levels == (len(level_schedule(g.n)) if g.n > TABLE_CAP else 0,)
        shapes[_body_shape(st)] += 1
    assert set(shapes) == {"table part", "plain part", "level", "level without parts"}


@pytest.mark.parametrize("inline", [False, True])
def test_roundtrip_two_levels(monkeypatch, inline):
    # Below 65,538 nodes the schedule has one level; a finer second one
    # makes the decoder replay two recovery streams, coarsest last.  Its
    # part graphs fall on both sides of the table cap.
    schedule = separation_mod.level_schedule
    finer = LevelProfile(r=5, comp_cap=4, cluster_cap=4)
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


# -- format pin -----------------------------------------------------------------

# SHA-256 of each container's bytes and of its labeling written as decimal
# labels joined by commas, for fixed inputs: (class, inline table, graph).
# A change here is a format change and must come with a new FORMAT_VERSION.
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
            union_rotations(
                [bounded_degree_tree(30, 51), [[]], bounded_degree_tree(5, 52)]
            )
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
    # One table code with its fix (a connect completion, empty here).
    "connected-6": (
        "plane-connected",
        False,
        lambda: random_planar_embedded(6, 0.4, random.Random(55)),
    ),
    # Large enough for the separator: the tree reaches the cycle phase (5
    # contractions), and the stacked triangulation is already triangulated.
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
        "f31b5069013e412760e6dc91bffb99b28630dc18871373114aca4f93d60daaac",
        "6491691ee6ace1b86174f18175f474729f353b02af064c7392e68886aea51b0e",
    ),
    "wheel-40-tail-1": (
        "a8b98e8d1aaaddeed445a999c3dae8490c883059045f480e1bb4697cff0a21df",
        "ace1931db375382fb64adb5eebb9a7c49925e79759d394de030ea7d634641cca",
    ),
    "planar-50": (
        "bd14c7922d4d98d26ddd67b7bb6a8e1a4b12d89d722135ee595d7f6353588c15",
        "126ca94d48cb1c6fe2fb94900c61bfb6aa89bb1cd30e0bf6c9c8e497c9a4c796",
    ),
    "forest-36": (
        "f57b70e222f42df5d64dcf9a3e2c092113fb099f04c83c6eb1692032c0882518",
        "8a7c63469f378fb1d3e54dd89837e98497192cd43a6fb842a5c86eb3fc7fe450",
    ),
    "triangulation-60": (
        "09f4033c67c2c2e974f602c3f5aa60125cd6deb0d6ec88121470a969cfd8e358",
        "abb1d5fbbe5b45c7e9b099a9f542f2e5e82b9cbd7303b2d847962240ae83118c",
    ),
    "connected-60": (
        "aabf3e7878855f360953904e8f615289124f1df09bc603fb72f258ecf56c7ec6",
        "104969c6d90712a7fa1871ca7b6ea48374411913a9d4d16442e94224547ff446",
    ),
    "connected-6": (
        "a3bfe6dc4edaab146c5651cf00f5f442d4c1e03a246d41fd8e4f980c295f80a2",
        "7f1201400ffbdf291d5ea394a7abda3608336309e639fb18767da684bee02d58",
    ),
    "forest-2000": (
        "a3fa6b45c766ac723ddf51e51e4e83c72a9bd38e0f530870c716fb368a2236b2",
        "05d6abc6804676f1593bc7fdc2a1d0830f4ba43b42fd63981d8d931d1846f22c",
    ),
    "triangulation-1600": (
        "8eb83c2c8171f83ec2e428a151b346e0eec8507fc50e0a90b8986cfd52d5d501",
        "57aed20fcd22f761f116e120e531f681f0fd555dfd8c601df556f4783d0bbbd5",
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN_INPUTS))
def test_format_golden_digests(name):
    assert FORMAT_VERSION == 6
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
        # the tree's host reaches the cycle phase
        ["forest-deg5", bounded_degree_tree_rotations(2000, rng)],
        # already triangulated: the triangle scan finds no open dart
        ["plane-triangulation", random_planar_embedded(400, 1.0, rng).to_rotations()],
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
    (tree_ok, tree_phases), (triangulation_ok, _) = json.loads(proc.stdout)
    assert tree_ok and triangulation_ok
    assert tree_phases > 0


# -- each job done once ---------------------------------------------------------


def _count_calls(monkeypatch, owner, name, calls, record=None):
    orig = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        if record is not None:
            record(*args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_encode_and_decode_do_each_job_once(monkeypatch):
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
    res = encode(g, "plane-triangulation", inline_table=True)
    st = res.stats
    coded = [m for m in st.part_sizes if m <= TABLE_CAP]
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
    # built on: it is never copied, whole or induced.  It is searched for
    # components three times: by encode's own euler, by build_separations'
    # connectivity check and by refine's components.
    assert hosts == [g]
    assert not any(graph is g for graph, _ in copied)
    assert sum(graph is g for graph in searched) <= 3

    # The self-parse inside encode and two decodes in this process read the
    # inline table as the held one and parse each member they use once.
    # The header's genus check and the class predicate share one trace too
    # (counted while the decoded graph lives, so its id is its own).
    traced.clear()
    first = decode(res.data)
    assert traced[id(first)] == 1
    traced.clear()
    second = decode(res.data)
    assert traced[id(second)] == 1
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

    # A multi-component input copies each component above the cap once, as
    # the host its separation is built on; one within the cap is written
    # from the input's own rows.
    sizes = (1, 6, 40, 3, 5, 60)
    forest = EmbeddedGraph.from_rotations(
        union_rotations([bounded_degree_tree(n, n) for n in sizes])
    )
    copied.clear()
    roundtrip(forest, "forest-deg5")
    assert sorted(size for graph, size in copied if graph is forest) == [40, 60]


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


# -- structural fuzz of the inline table section ---------------------------------


def _table_fields(data):
    """Bit spans (start, end) inside a container's inline table section:
    each member count and each member code."""
    bits = BitString.from_bytes(data, 8 * len(data))
    r = BitReader(bits, stats(data).header_bits)
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
        count = BitReader(bits, start).read_uint()
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
            union_rotations([bounded_degree_tree(24, 71), bounded_degree_tree(4, 72)])
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
    r = BitReader(bits, st.header_bits + st.table_bits)
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
def test_plain_part_mutations_raise_only_codec_error(n):
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
def test_malformed_plain_part_raises_codec_error(kind, n, levels):
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


# -- structural fuzz of level streams --------------------------------------------


def _level_fields(data):
    """Bit spans (start, end, value) of the uint fields of the first piece of
    the first level stream in a one-component by-reference container: the
    stream's piece count, the piece's four sizes, its first skeleton degree,
    its first boundary-map row count and its triple count."""
    bits = BitString.from_bytes(data, 8 * len(data))
    st = stats(data)
    cls, table = get_class(st.class_name), build_table(st.class_name)
    r = BitReader(bits, st.header_bits + st.table_bits)
    assert r.read_uint()  # level count
    acc = {"part_code": 0, "fix": 0, "part_sizes": [], "part_widths": [], "covered": 0}
    sizes = [len(codec_mod._decode_part(r, cls, table, acc)) for _ in range(r.read_uint())]
    fields = {}

    def field(name):
        start = r.pos
        value = r.read_uint()
        fields.setdefault(name, (start, r.pos, value))
        return value

    field("pieces")
    ni, nw, nv, nb = (field(name) for name in ("parts", "kernel", "interior", "boundary"))
    width = ceil_log2(nw + nv + nb)
    for _ in range(nw + nb):
        degree = field("degree")
        r.pos += degree * width
    for size in sizes[:ni]:
        rows = field("rows")
        r.pos += rows * (ceil_log2(size) + width)
    triples = field("triples")
    r.pos += 3 * triples * width
    assert r.pos <= len(bits)
    return bits, fields


@pytest.mark.parametrize("levels", [1, 2])
def test_level_stream_mutations_raise_only_codec_error(levels, monkeypatch):
    # Each uint field of the first piece of the finest level stream, moved
    # by one either way and set to 2^40.  With two levels, the fields belong
    # to the first of two streams the decoder replays.
    if levels == 2:
        schedule = separation_mod.level_schedule
        finer = LevelProfile(r=5, comp_cap=4, cluster_cap=4)
        monkeypatch.setattr(separation_mod, "level_schedule", lambda n: schedule(n) + [finer])
    g = random_planar_embedded(120, 0.3, random.Random(120))
    data = encode(g, "planar", inline_table=False).data
    assert stats(data).levels == (levels,)
    bits, fields = _level_fields(data)
    assert len(fields) == 8
    for name, (start, end, value) in fields.items():
        for new in (value + 1, value - 1, 1 << 40):
            if new < 0:
                continue
            mutated = _splice(bits, start, end, uint_bits(new))
            t0 = time.perf_counter()
            outcome = _outcome(mutated)
            # A container of a few hundred bytes decodes in milliseconds.
            assert time.perf_counter() - t0 < 1.0
            assert outcome == "CodecError", (name, value, new)


# -- structural fuzz of body boundaries ------------------------------------------


def _body_fields(data):
    """Per component body of a by-reference container: its start, and the
    spans (start, end, value) of its level count, of its part count where it
    has levels, and of its first part's size."""
    bits = BitString.from_bytes(data, 8 * len(data))
    st = stats(data)
    cls, table = get_class(st.class_name), build_table(st.class_name)
    r = BitReader(bits, st.header_bits + st.table_bits)
    acc = {"levels": [], "recovery": 0, "part_code": 0, "fix": 0,
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
        codec_mod._decode_body(r, cls, table, acc)
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
    """A plane host (stacked or thinned triangulation, degree-5 tree or grid)
    and a part of it: a random node set, the ring of a node's neighbors, or
    a breadth-first ball.  Rings and balls have boundary nodes next to
    several part nodes."""
    kind = draw(strategies.sampled_from(["stacked", "thinned", "tree", "grid"]))
    n = draw(strategies.integers(4, 60))
    rng = random.Random(draw(strategies.integers(0, 1 << 16)))
    if kind == "stacked":
        g = random_planar_embedded(n, 1.0, rng)
    elif kind == "thinned":
        g = random_planar_embedded(n, 0.3, rng)
    elif kind == "tree":
        g = EmbeddedGraph.from_rotations(bounded_degree_tree_rotations(n, rng))
    else:
        g = EmbeddedGraph.from_rotations(grid_rotations(n // 8 + 1, 8))
    v = draw(strategies.integers(0, g.n - 1))
    shape = draw(strategies.sampled_from(["set", "ring", "ball"]))
    if shape == "set":
        part = {v} | draw(strategies.sets(strategies.integers(0, g.n - 1)))
    elif shape == "ring":
        part = set(g.neighbors(v))
    else:
        part = {v}
        for _ in range(draw(strategies.integers(1, 3))):
            part |= g.neighbors_of_set(part)
    return g, sorted(part)


@settings(max_examples=150, deadline=None)
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
    table = build_table("planar")
    w = BitWriter()
    view = codec_mod._encode_part(w, g, part, get_class("planar"), table)
    if pg.graph.n > TABLE_CAP:
        # Above the cap: the contour code of the oracle graph's rows, read
        # from each node's first dart, and the view in the code's preorder.
        h = pg.graph
        oracle_rows = [
            [h.head(d) for d in h.rotation_from(h.first[v])] if h.first[v] >= 0 else []
            for v in range(h.n)
        ]
        want = BitWriter()
        order = write_contour_into(want, oracle_rows)
        assert w.build() == want.build()
        pre = [0] * h.n
        for i, v in enumerate(order):
            pre[v] = i
        assert view == PartView(frozenset(pre[b] for b in pg.boundary), [pg.ids[v] for v in order])
        decoded = read_contour(BitReader(want.build()))
        assert labeled_equal(EmbeddedGraph.from_rotations(decoded), h.relabel(pre))


def test_encode_body_names_a_part_that_is_not_plane():
    # A 4 x 4 torus grid has 16 nodes, where no level binds: it is one part,
    # and its contour symbols cannot nest.
    g = EmbeddedGraph.from_rotations(torus_grid_rotations(4))
    assert g.genus() == 1
    with pytest.raises(ChecksFailed, match=r"finest part 0 \(16 nodes\).*not plane"):
        codec_mod._encode_body(BitWriter(), g, get_class("planar"), build_table("planar"), 1)


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


def test_stats_covered_nodes_and_widths():
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


def test_stats_fix_bits_present_for_patched_class():
    # Only table codes carry fixes: a component within the table cap is one.
    c = random_planar_embedded(6, 0.4, random.Random(72))
    assert c.connected
    res = encode(c, "plane-connected", inline_table=False)
    assert res.stats.part_sizes == (6,) and res.stats.fix_bits > 0
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


def body_bits(table, g, *, fix=False):
    """A valid one-part body for a table member (a connected one, or the
    decoder refuses it), with an empty fix for a class that patches."""
    m, idx = table.index_of(g)
    w = BitWriter()
    w.write_uint(0)
    w.write_uint(m)
    w.write_uint_bits(idx, table.width(m))
    if fix:
        _write_fix(w, Fix(), m)
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
    table = build_table("planar")
    two_isolated = EmbeddedGraph.from_rotations([[], []])
    body = body_bits(table, two_isolated)
    with pytest.raises(CodecError):
        decode(craft(n=2, bodies=(body,)))


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
    body = body_bits(table, EmbeddedGraph.from_rotations(rows), fix=name == "plane-connected")
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
    r = BitReader(bits, 24)
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
# length prefix; its version 5 container names the table by its cap, 6.
V4_FOREST = bytes.fromhex("504c432881190e406622e928d0c13a9d68")
V5_FOREST = bytes.fromhex("504c433081190f251a182753ad00")


def _forest_by_reference():
    g = EmbeddedGraph.from_rotations(
        union_rotations([bounded_degree_tree(3, 61), bounded_degree_tree(12, 62), [[]]])
    )
    return encode(g, "forest-deg5", inline_table=False)


def test_decode_rejects_a_version_4_container():
    # Version 4 framed the bodies of a multi-component container with their
    # lengths; later versions write them one after another.  A version 4
    # container is refused at its header, and so are version 6 bodies under
    # a version 4 header.
    data = _forest_by_reference().data
    assert FORMAT_VERSION == 6 and len(data) < len(V4_FOREST)
    v4bits, start, end = _header_field(V4_FOREST, 0)
    assert BitReader(v4bits, start).read_uint() == 4
    with pytest.raises(CodecError, match="version"):
        decode(V4_FOREST)
    # Under a version 6 header the framing is misread as a body.
    assert _outcome(_splice(v4bits, start, end, uint_bits(6))) != decode(data).to_rotations()
    bits, start, end = _header_field(data, 0)
    with pytest.raises(CodecError, match="version"):
        decode(_splice(bits, start, end, uint_bits(4)))


def test_decode_rejects_a_version_5_container():
    # Version 5 wrote a by-reference table section as uint(cap); version 6
    # writes nothing there, since the header's class names the table.  A
    # version 5 container is refused at its header; under a version 6 header
    # its cap field is misread as a body.
    res = _forest_by_reference()
    st = res.stats
    assert FORMAT_VERSION == 6 and st.table_bits == 0
    v5bits, start, end = _header_field(V5_FOREST, 0)
    assert BitReader(v5bits, start).read_uint() == 5
    with pytest.raises(CodecError, match="version"):
        decode(V5_FOREST)
    forged = _splice(v5bits, start, end, uint_bits(6))
    assert _outcome(forged) != decode(res.data).to_rotations()
    # Apart from the version and the cap field the bits are the same.
    bits = BitString.from_bytes(res.data, 8 * len(res.data))
    forged_bits = BitString.from_bytes(forged, 8 * len(forged))
    header = st.header_bits
    assert forged_bits.slice(0, header) == bits.slice(0, header)
    cap = BitReader(forged_bits, header)
    assert cap.read_uint() == TABLE_CAP
    payload = st.total_bits - st.padding_bits - header
    assert forged_bits.slice(cap.pos, payload) == bits.slice(header, payload)
    assert cap.pos + payload > len(forged_bits) - 8


# A by-reference version 6 forest container made by an encoder that separated
# each component's triangulation, not the component itself, with the labeling
# it returned.  Its 40- and 9-node trees were cut into other parts than they
# are today, but the grammar is unchanged, so it still decodes.
TRIANGULATED_HOST_V6_FOREST = bytes.fromhex(
    "504c433880ce444080788bce53848246d2c2126d3c910587ec10d8013044600a8241f940"
    "071a48e25801484e0f4312006500882080a82d04103184f0818b387380aa2b20c1981"
    "1d490b0642851a141a0"
)
TRIANGULATED_HOST_V6_LABELING = [
    0, 1, 21, 2, 3, 10, 16, 22, 39, 4, 11, 5, 13, 17, 35, 38, 18, 37, 30, 26,
    27, 29, 32, 28, 14, 25, 6, 15, 20, 7, 36, 8, 34, 9, 12, 24, 19, 33, 31, 23,
    40, 41, 42, 43, 44, 45, 46, 47, 48, 49,
]


def test_decode_reads_a_container_cut_on_a_triangulated_host():
    g = EmbeddedGraph.from_rotations(
        union_rotations([
            bounded_degree_tree_rotations(40, random.Random(63)),
            bounded_degree_tree_rotations(9, random.Random(64)),
            [[]],
        ])
    )
    res = roundtrip(g, "forest-deg5")
    assert res.data != TRIANGULATED_HOST_V6_FOREST
    st = stats(TRIANGULATED_HOST_V6_FOREST)
    assert st.levels == res.stats.levels == (1, 1, 0)
    assert st.part_sizes == (15, 17, 6, 1) != res.stats.part_sizes
    want = g.relabel(TRIANGULATED_HOST_V6_LABELING)
    assert labeled_equal(decode(TRIANGULATED_HOST_V6_FOREST), want)


@pytest.mark.parametrize("n", [5, 15, 40])
def test_decode_rejects_plane_connected_body_under_triangulation_class(n):
    # Triangulations code against the plane-connected table.  A connected
    # container relabeled as a triangulation misparses where its table codes
    # carry fixes (a triangulation's carry none), as the one table code of
    # a 5-node component does; a body of plain parts alone, as the one part
    # of a 15-node component, parses, and the class predicate on the decoded
    # graph refuses it.
    g = random_planar_embedded(n, 0.1, random.Random(94 + n))
    assert g.connected and not get_class("plane-triangulation").member(g)
    data = encode(g, "plane-connected", inline_table=False).data
    bits, start, end = _header_field(data, 1)
    assert BitReader(bits, start).read_uint() == CLASS_ORDER.index("plane-connected")
    forged = _splice(bits, start, end, uint_bits(CLASS_ORDER.index("plane-triangulation")))
    with pytest.raises(CodecError, match="class predicate" if n == 15 else None):
        decode(forged)


# -- fix wire format ----------------------------------------------------------


def fix_bits(fix, m):
    w = BitWriter()
    _write_fix(w, fix, m)
    return w.build()


def test_fix_wire_roundtrip():
    cases = [
        (Fix(), 5),
        (Fix((3, 4), ()), 5),
        (Fix((), ((0, 1), (0, 2))), 4),
        (Fix((6, 7), ((0, 1), (1, 5))), 8),
    ]
    for fix, m in cases:
        r = BitReader(fix_bits(fix, m))
        assert _read_fix(r, m) == fix
        assert r.remaining == 0


def test_fix_wire_rejections():
    def raw(m, na, ne, labels):
        w = BitWriter()
        w.write_uint(na)
        w.write_uint(ne)
        lw = max(m - 1, 0).bit_length()
        for v in labels:
            w.write_uint_bits(v, lw)
        return BitReader(w.build())

    with pytest.raises(CodecError):
        _read_fix(raw(5, 6, 0, [0, 1, 2, 3, 4, 4]), 5)  # too many nodes
    with pytest.raises(CodecError):
        _read_fix(raw(5, 1, 0, [5]), 5)  # label out of range (width allows it)
    with pytest.raises(CodecError):
        _read_fix(raw(5, 2, 0, [3, 2]), 5)  # nodes not ascending
    with pytest.raises(CodecError):
        _read_fix(raw(5, 0, 1, [2, 1]), 5)  # edge not (small, large)
    with pytest.raises(CodecError):
        _read_fix(raw(5, 0, 2, [0, 1, 0, 1]), 5)  # duplicate edge
    with pytest.raises(CodecError):
        _read_fix(raw(5, 1, 1, [2, 1, 2]), 5)  # edge at a deleted node
    with pytest.raises(CodecError):
        _read_fix(raw(5, 1, 0, []), 5)  # truncated


def test_class_ids_are_stable():
    assert CLASS_ORDER == (
        "planar",
        "plane-connected",
        "plane-triangulation",
        "forest-deg5",
    )
