"""Container codec: round-trips, stats accounting, and malformed-input rejection."""

import hashlib
import random
from collections import Counter

import pytest

from oracles import (
    antiprism_rotations,
    capped_antiprism_rotations,
    random_planar_embedded,
    random_tree_rotations,
    wheel_with_tail,
)
from plancode import (
    ChecksFailed,
    CodecError,
    GenusTooLarge,
    NotInClass,
    decode,
    encode,
    stats,
)
import plancode.codec as codec_mod
import plancode.embgraph as embgraph_mod
import plancode.separation as separation_mod
import plancode.table as table_mod
from plancode.bits import BitReader, BitString, BitWriter, write_segmented
from plancode.codec import _read_fix, _write_fix
from plancode.constants import BYPASS_CAP, FORMAT_VERSION, MAGIC
from plancode.embgraph import EmbeddedGraph, labeled_equal, triangulate
from plancode.patcher import Fix
from plancode.separation import level_schedule
from plancode.table import CLASS_ORDER, ClassTable, build_table, get_class, read_table

# K5 admits no genus-0 embedding; these rotations realize genus 1 and 2.
K5_GENUS1 = [[4, 2, 3, 1], [3, 0, 4, 2], [4, 1, 3, 0], [1, 0, 2, 4], [0, 3, 1, 2]]
K5_GENUS2 = [[u for u in range(5) if u != v] for v in range(5)]
# K7 on the torus: neighbor steps (1, 3, 2, -1, -3, -2) around every node.
K7_TORUS = [[(v + s) % 7 for s in (1, 3, 2, 6, 4, 5)] for v in range(7)]
# A shuffled K7 rotation far above the genus limit.
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
    assert res.stats.levels[0] >= 1


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
    # One pipeline-sized component, one bypass-sized, one isolated node.
    g1 = random_planar_embedded(16, 0.5, random.Random(31)).to_rotations()
    g2 = random_planar_embedded(4, 0.5, random.Random(32)).to_rotations()
    g = EmbeddedGraph.from_rotations(union_rotations([g1, g2, [[]]]))
    res = roundtrip(g, "planar")
    assert sorted(res.stats.levels)[0] == 0 and sorted(res.stats.levels)[-1] >= 1


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
        if g.n <= BYPASS_CAP:
            assert st.levels == (0,) and st.part_sizes == (g.n,)
            continue
        assert st.levels[0] >= 1
        # Parts are degree-3 nodes with their neighbors, so a triangulation
        # of minimum degree 4 leaves none.
        dmin = min(g.degree(v) for v in range(g.n))
        min_degree[dmin] += 1
        assert set(st.part_sizes) == ({4} if dmin == 3 else set())
    assert min_degree[3] and min_degree[4]


def test_triangulation_parts_are_stars_coded_by_the_plane_connected_table():
    g = random_planar_embedded(400, 1.0, random.Random(401))  # stacked triangulation
    res = roundtrip(g, "plane-triangulation", inline_table=True)
    st = res.stats
    assert len(st.part_sizes) > 10 and set(st.part_sizes) == {4}
    assert st.fix_bits == 0
    table = build_table("plane-connected")
    assert st.part_widths[0] == table.width(4) > 0
    bits = BitString.from_bytes(res.data, 8 * len(res.data))
    assert read_table(BitReader(bits, st.header_bits)) is table
    assert st.table_bits == len(table.serialize())


# Inputs whose mop-up level puts every node of the triangulated host in the
# center, so the finest level leaves no part.
ZERO_PART_INPUTS = [
    ("antiprism-8", antiprism_rotations(4), "plane-connected"),
    ("antiprism-8", antiprism_rotations(4), "planar"),
    ("antiprism-16", antiprism_rotations(8), "plane-connected"),
    ("antiprism-16", antiprism_rotations(8), "planar"),
    ("icosahedron", capped_antiprism_rotations(5), "plane-triangulation"),
    ("wheel-6-tail-1", wheel_with_tail(6, 1), "plane-connected"),
]


@pytest.mark.parametrize(
    "rows,class_name",
    [(rows, cls) for _, rows, cls in ZERO_PART_INPUTS],
    ids=[f"{name}-{cls}" for name, _, cls in ZERO_PART_INPUTS],
)
def test_roundtrip_finest_level_without_parts(rows, class_name):
    g = EmbeddedGraph.from_rotations(rows)
    res = roundtrip(g, class_name)
    assert res.stats.levels[0] >= 1
    assert res.stats.part_sizes == ()


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
    # The last one carries fixes (connect completions).
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
}
GOLDEN_DIGESTS = {
    "icosahedron": (
        "dba76c0acedd0f1143aa13dee1f54a2911767a418d5595f9af8181186f144d84",
        "ef558e7f6f010c2a49c23da9cd904158812c6d59728cbc927cf3599667a48e33",
    ),
    "wheel-40-tail-1": (
        "986abf28a806cbba619fb0e883d9ff644dc7d29003c9d1f1643e488953853748",
        "27037c79e2071071b4354678e9b844fa24fbe7d57943599a27f41e8347862068",
    ),
    "planar-50": (
        "44a51f0b7fc7e7c3944c392ce5d8b4b0bb769467545f31f321ad12693d211d30",
        "165c04aa600adf823d782bfcea6ada9f7c916f924303ab9f422bb28ab2526684",
    ),
    "forest-36": (
        "f67bcbc1d65f296aca53614e5a4f25975b95739a8eed3840868c0fca919500c4",
        "afd4d6a376642b4c1f96bddde2b1944902021831a6ec708907d94ca45c532612",
    ),
    "triangulation-60": (
        "e0dc7bc61d29e03635dc79a86d3049dc3fe5810088a44694e9e551356f268dae",
        "c1cf0f5742599ada42c8f84bd713e110aaeb1bc962d60c47ab3c5a14f9f52c7c",
    ),
    "connected-60": (
        "eff724e425f984ca3a61211913080789bbe8760b8aa695966d1a89f4b5593835",
        "0c7773aa4a87717cc40ade0da3ec5b6f9722918325493c40ed449f523a803794",
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN_INPUTS))
def test_format_golden_digests(name):
    assert FORMAT_VERSION == 2
    class_name, inline, make = GOLDEN_INPUTS[name]
    res = encode(make(), class_name, inline_table=inline)
    labeling = ",".join(map(str, res.labeling)).encode()
    got = (hashlib.sha256(res.data).hexdigest(), hashlib.sha256(labeling).hexdigest())
    assert got == GOLDEN_DIGESTS[name]


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
    table = ClassTable(held.gclass, held.cap, held._members)
    monkeypatch.setitem(table_mod._TABLE_MEMO, (held.name, held.cap), table)
    calls = Counter()
    requested = set()
    _count_calls(monkeypatch, embgraph_mod, "canonical_form", calls)
    _count_calls(monkeypatch, separation_mod, "planarize", calls)
    _count_calls(monkeypatch, codec_mod, "build_separations", calls)
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
    parts = len(res.stats.part_sizes)
    # One canonical labeling per part code written, none for the lookup.
    assert parts > 10
    assert calls["canonical_form"] == parts
    # One planarize per separation host, not one per level.
    assert res.stats.levels[0] >= 2
    assert calls["planarize"] == calls["build_separations"] == 1
    # The genus guard and the class predicate share one trace of the faces.
    assert traced[id(g)] == 1

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
    assert calls["member_graph"] == 3 * parts
    assert calls["read_graph"] == len(requested) < sum(table.counts())
    assert labeled_equal(first, second)
    assert labeled_equal(first, g.relabel(res.labeling))

    # A component small enough for a single code is labeled once too.
    calls.clear()
    small = encode(random_planar_embedded(6, 1.0, random.Random(6)), "plane-triangulation")
    assert small.stats.levels == (0,) and calls["canonical_form"] == 1


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
    the cap field, each member count, and each member code."""
    bits = BitString.from_bytes(data, 8 * len(data))
    r = BitReader(bits, stats(data).header_bits)
    r.read_uint()  # class id
    start = r.pos
    cap = r.read_uint()
    fields = {"cap": (start, r.pos), "count": [], "code": []}
    for _ in range(cap):
        start = r.pos
        count = r.read_uint()
        fields["count"].append((start, r.pos))
        for _ in range(count):
            start = r.pos
            table_mod.read_graph(r)
            fields["code"].append((start, r.pos))
    fields["end"] = r.pos
    return bits, cap, fields


def _splice(bits, start, end, new):
    return (bits.slice(0, start) + new + bits.slice(end, len(bits) - end)).to_bytes()


def _table_mutations(data):
    bits, cap, fields = _table_fields(data)
    table_start = fields["cap"][0]
    out = []
    codes = fields["code"]
    for k in (0, len(codes) // 2, len(codes) - 1):
        start, end = codes[k]
        for pos in (start, (start + end) // 2, end - 1):
            flipped = bits.uint_at(pos, 1) ^ 1
            out.append(_splice(bits, pos, pos + 1, BitString(flipped, 1)))
    for m in (1, cap // 2, cap):
        start, end = fields["count"][m - 1]
        count = BitReader(bits, start).read_uint()
        for c in (count + 1, max(count - 1, 0), 0):
            if c != count:
                out.append(_splice(bits, start, end, uint_bits(c)))
    start, end = fields["cap"]
    for c in (cap - 1, cap + 1, 1, 65):
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
    # Parts cover the non-center nodes (center zones travel in the recovery
    # streams instead), so coverage is positive but need not reach n; fixes
    # only ever shrink a member, so coverage never exceeds the member total.
    assert 0 < st.covered_nodes <= sum(st.part_sizes)
    assert len(st.part_sizes) == len(st.part_widths)
    table = build_table("planar", 6)
    for m, w in zip(st.part_sizes, st.part_widths):
        assert w == table.width(m)
    assert st.part_code_bits == sum(st.part_widths)


def test_stats_fix_bits_present_for_patched_class():
    c = random_planar_embedded(25, 0.4, random.Random(72))
    assert c.connected
    res = encode(c, "plane-connected", inline_table=False)
    assert res.stats.part_sizes and res.stats.fix_bits > 0
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
        len(level_schedule(len(nodes))) if len(nodes) > BYPASS_CAP else 0
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


def test_encode_genus_guard_precedes_membership():
    k5 = EmbeddedGraph.from_rotations(K5_GENUS1)
    assert k5.genus() == 1
    with pytest.raises(GenusTooLarge):
        encode(k5, "planar", max_genus=0)
    with pytest.raises(NotInClass):
        encode(k5, "planar", max_genus=1)
    k7 = EmbeddedGraph.from_rotations(K7_TORUS)
    assert k7.genus() == 1
    with pytest.raises(GenusTooLarge):
        encode(k7, "planar", max_genus=0)
    high = EmbeddedGraph.from_rotations(K7_GENUS6)
    assert high.genus() == 6
    with pytest.raises(GenusTooLarge):
        encode(high, "planar")  # above the default limit


# -- decode-side rejection ----------------------------------------------------


def small_container(**kw):
    g = random_planar_embedded(12, 0.5, random.Random(90))
    return encode(g, "planar", inline_table=False, **kw).data


def craft(class_id=0, n=3, genus=0, ncomp=1, bodies=(), *, version=FORMAT_VERSION,
          magic=MAGIC, inline=None, ref_cap=6):
    """Hand-assemble a container around the given bodies (BitStrings)."""
    w = BitWriter()
    w.write_uint_bits(magic, 24)
    w.write_uint(version)
    w.write_bit(0 if inline is None else 1)
    w.write_uint(class_id)
    w.write_uint(n)
    w.write_uint(genus)
    w.write_uint(ncomp)
    if inline is None:
        w.write_uint(ref_cap)
    else:
        w.write_bits(inline.serialize())
    if len(bodies) == 1:
        w.write_bits(bodies[0])
    elif bodies:
        write_segmented(w, list(bodies))
    return w.build().to_bytes()


def body_bits(table, g):
    """A valid single-code body for a small graph."""
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
    table = build_table("planar", 6)
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
        decode(craft(n=6, ncomp=3, bodies=(body, body)))  # segment count lies


def test_decode_body_field_ranges():
    table = build_table("planar", 6)

    def body(*writes):
        w = BitWriter()
        for kind, val in writes:
            if kind == "uint":
                w.write_uint(val)
            else:
                w.write_uint_bits(*val)
        return w.build()

    with pytest.raises(CodecError):  # member size above the cap
        decode(craft(n=7, bodies=(body(("uint", 0), ("uint", 7)),)))
    with pytest.raises(CodecError):  # member index out of range
        bad = body(("uint", 0), ("uint", 5), ("bits", (table.num(5), table.width(5))))
        decode(craft(n=5, bodies=(bad,)))
    with pytest.raises(CodecError):  # level count out of range
        decode(craft(n=9, bodies=(body(("uint", 65),),)))
    with pytest.raises(CodecError):  # no parts, and the level stream is missing
        decode(craft(n=9, bodies=(body(("uint", 1), ("uint", 0)),)))


def test_decode_disconnected_member_rejected():
    table = build_table("planar", 6)
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


def test_decode_trailing_bits_inside_segmented_body():
    table = build_table("planar", 6)
    p2 = EmbeddedGraph.from_rotations([[1], [0]])
    good = body_bits(table, p2)
    w = BitWriter()
    w.write_bits(good)
    w.write_bit(0)
    padded = w.build()
    with pytest.raises(CodecError):
        decode(craft(n=4, ncomp=2, bodies=(padded, good)))
    assert decode(craft(n=4, ncomp=2, bodies=(good, good))).n == 4


@pytest.mark.parametrize("name", CLASS_ORDER)
def test_decode_rejects_ref_cap_above_standard(name):
    # anything above the standard cap is refused, even the next size up:
    # a container must never trigger expensive enumeration
    with pytest.raises(CodecError):
        decode(craft(class_id=CLASS_ORDER.index(name), ref_cap=BYPASS_CAP + 1))


def test_decode_table_section_guards():
    with pytest.raises(CodecError):
        decode(craft(ref_cap=0, bodies=()))
    other = build_table("plane-connected", 6)
    p3 = EmbeddedGraph.from_rotations([[1], [0, 2], [1]])
    body = body_bits(other, p3)
    with pytest.raises(CodecError):  # header says planar, table says otherwise
        decode(craft(class_id=0, n=3, inline=other, bodies=(body,)))
    # A triangulation's table is the plane-connected one, and no other.
    tri = CLASS_ORDER.index("plane-triangulation")
    k4 = EmbeddedGraph.from_rotations([[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]])
    assert decode(craft(class_id=tri, n=4, inline=other, bodies=(body_bits(other, k4),))).n == 4
    planar = build_table("planar", 6)
    with pytest.raises(CodecError):
        decode(craft(class_id=tri, n=4, inline=planar, bodies=(body_bits(planar, k4),)))


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


@pytest.mark.parametrize("n", [5, 40])
def test_decode_rejects_plane_connected_body_under_triangulation_class(n):
    # Triangulations code against the plane-connected table.  A connected
    # container relabeled as a triangulation misparses where its parts carry
    # fixes (triangulation parts carry none); a single code parses, and the
    # class predicate on the decoded graph refuses it.
    g = random_planar_embedded(n, 0.1, random.Random(94 + n))
    assert g.connected and not get_class("plane-triangulation").member(g)
    data = encode(g, "plane-connected", inline_table=False).data
    bits, start, end = _header_field(data, 1)
    assert BitReader(bits, start).read_uint() == CLASS_ORDER.index("plane-connected")
    forged = _splice(bits, start, end, uint_bits(CLASS_ORDER.index("plane-triangulation")))
    with pytest.raises(CodecError, match="class predicate" if n <= BYPASS_CAP else None):
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
