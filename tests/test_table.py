import hashlib
import math
import random

import pytest

import plancode.table as table_mod
from plancode.constants import TABLE_CAP
from plancode.embgraph import EmbeddedGraph, canonical_code, labeled_equal, read_graph
from plancode.errors import CodecError, NotInClass
from plancode.table import (
    CLASS_ORDER,
    CLASSES,
    ClassTable,
    build_table,
    get_class,
    read_table,
    _enumerate_members,
    _TABLE_MEMO,
)

from oracles import (
    K5_TORUS,
    OCTAHEDRON,
    ORACLE_PREDICATES,
    _embedded_rep_rotations,
    bit_reader,
    oracle_class_count,
    random_planar_embedded,
)

@pytest.fixture(scope="session")
def tables(tmp_path_factory):
    """The standard table of every class, cached in an empty directory."""
    cache_dir = str(tmp_path_factory.mktemp("tables"))
    return {name: build_table(name, cache_dir=cache_dir) for name in CLASS_ORDER}


# -- counts against the independent oracle -------------------------------------


@pytest.mark.parametrize("name", CLASS_ORDER)
def test_counts_match_brute_force_oracle(name, tables):
    # Dual route: the oracle enumerates every labeled rotation system on
    # <= 5 nodes and buckets by an independently-computed canonical key.
    # A class's table holds the members of its table class.
    built = tables[name].counts()[:5]
    oracle = [oracle_class_count(get_class(name).table_class, m) for m in range(1, 6)]
    assert built == oracle


FROZEN_SMALL_COUNTS = {
    "planar": [1, 2, 4, 11, 41],
    "plane-connected": [1, 1, 2, 6, 28],
    "forest-deg5": [1, 2, 3, 6, 10],
}


@pytest.mark.parametrize("name", CLASS_ORDER)
def test_counts_small_frozen(name, tables):
    want = FROZEN_SMALL_COUNTS[get_class(name).table_class]
    assert tables[name].counts()[:5] == want


# Frozen from the first verified build (counts cross-checked against the
# oracle for m <= 5 above; larger sizes sanity-checked externally: forests on
# 6 nodes number 20).
FROZEN_OPERATING_COUNTS = {
    "planar": [1, 2, 4, 11, 41, 304],
    "plane-connected": [1, 1, 2, 6, 28, 253],
    "forest-deg5": [1, 2, 3, 6, 10, 20],
}


@pytest.mark.parametrize("name", CLASS_ORDER)
def test_counts_operating_frozen(name, tables):
    want = FROZEN_OPERATING_COUNTS[get_class(name).table_class]
    assert tables[name].counts() == want


def _predicate_inputs():
    """Every embedded graph on 1 to 4 nodes, stars with 5 and 6 leaves,
    then stacked triangulations, each also missing an edge, shuffled
    rotations and unions."""
    for n in range(1, 5):
        for rots in _embedded_rep_rotations(n, connected_only=False):
            yield [list(r) for r in rots]
    for leaves in (5, 6):
        yield [list(range(1, leaves + 1))] + [[0] for _ in range(leaves)]
    rng = random.Random(53)
    for n in (5, 8, 13, 30):
        rots = random_planar_embedded(n, 1.0, rng).to_rotations()
        yield rots
        u = rng.randrange(n)
        v = rots[u][0]
        yield [[w for w in row if {x, w} != {u, v}] for x, row in enumerate(rots)]
        yield [rng.sample(row, len(row)) for row in rots]
        yield rots + [[w + n for w in row] for row in rots]


@pytest.mark.parametrize("name", CLASS_ORDER)
def test_predicates_match_oracle(name):
    # The oracle checks face lengths; the triangulation predicate counts
    # edges instead.
    gclass, oracle = CLASSES[name], ORACLE_PREDICATES[name][0]
    seen = set()
    for rots in _predicate_inputs():
        want = oracle(rots)
        assert gclass.member(EmbeddedGraph.from_rotations(rots)) == want
        seen.add(want)
    assert seen == {True, False}


def test_width_is_ceil_log2(tables):
    for tbl in tables.values():
        for m in range(1, TABLE_CAP + 1):
            count = tbl.num(m)
            want = math.ceil(math.log2(count)) if count > 1 else 0
            assert tbl.width(m) == want


def test_num_outside_range_raises(tables):
    tbl = tables["planar"]
    with pytest.raises(ValueError):
        tbl.num(0)
    with pytest.raises(ValueError):
        tbl.num(TABLE_CAP + 1)


# -- member structure -----------------------------------------------------------


def test_members_roundtrip_and_satisfy_predicate(tables):
    for tbl in tables.values():
        member = tbl.gclass.member
        for m in range(1, TABLE_CAP + 1):
            for i in range(tbl.num(m)):
                g = tbl.member_graph(m, i)
                assert g.n == m
                assert member(g)
                assert tbl.index_of(g) == (m, i)
                assert canonical_code(g) == tbl.member_code(m, i)


def test_members_strictly_sorted(tables):
    for tbl in tables.values():
        for m in range(1, TABLE_CAP + 1):
            keys = [
                (len(c), c.value)
                for c in (tbl.member_code(m, i) for i in range(tbl.num(m)))
            ]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)


def test_index_of_ignores_labeling(tables):
    tbl = tables["plane-connected"]
    g = tbl.member_graph(5, tbl.num(5) - 1)
    perm = [2, 0, 4, 1, 3]
    assert tbl.index_of(g.relabel(perm)) == tbl.index_of(g)


def test_mirror_closure(tables):
    # The mirror of a member is a member (classes are reflection-closed, and
    # the enumerations must reach both chiralities).
    for tbl in tables.values():
        for m in range(1, TABLE_CAP + 1):
            for i in range(tbl.num(m)):
                rots = tbl.member_graph(m, i).to_rotations()
                mir = EmbeddedGraph.from_rotations([row[::-1] for row in rots])
                assert mir in tbl


def test_octahedron_reachable(tables):
    # Minimum degree 4: the triangulation's single-code bypass finds it in
    # the plane-connected table, which chord moves reach.
    octa = EmbeddedGraph.from_rotations(OCTAHEDRON)
    m, _ = tables["plane-triangulation"].index_of(octa)
    assert m == 6


def test_planar_size2_members_are_edge_and_two_singletons(tables):
    tbl = tables["planar"]
    assert tbl.num(2) == 2
    edge_counts = sorted(tbl.member_graph(2, i).num_edges for i in range(2))
    assert edge_counts == [0, 1]


def test_triangulation_codes_against_the_plane_connected_table(tmp_path):
    assert get_class("plane-triangulation").table_class == "plane-connected"
    for name in ("planar", "plane-connected", "forest-deg5"):
        assert get_class(name).table_class == name
    tbl = build_table("plane-triangulation", cache_dir=str(tmp_path))
    assert tbl is build_table("plane-connected")
    assert tbl.name == "plane-connected" and len(tbl.counts()) == TABLE_CAP
    assert "plane-triangulation" not in _TABLE_MEMO


def test_not_in_class(tables):
    k5 = EmbeddedGraph.from_rotations(K5_TORUS)
    with pytest.raises(NotInClass):
        tables["planar"].index_of(k5)
    edge_and_node = EmbeddedGraph.from_rotations([[1], [0], []])
    with pytest.raises(NotInClass):
        tables["plane-connected"].index_of(edge_and_node)
    assert edge_and_node in tables["planar"]


def test_index_of_above_cap_raises(tables, monkeypatch):
    # A graph above the cap is no member, and it is not labeled to find out.
    tbl = tables["forest-deg5"]
    rots = [[1], [0, 2], [1, 3], [2, 4], [3, 5], [4, 6], [5, 7], [6]]
    monkeypatch.setattr(table_mod, "canonical_code", None)
    with pytest.raises(NotInClass):
        tbl.index_of(EmbeddedGraph.from_rotations(rots))


def test_member_lookup_out_of_range(tables):
    tbl = tables["planar"]
    with pytest.raises(CodecError):
        tbl.member_code(3, tbl.num(3))
    with pytest.raises(CodecError):
        tbl.member_graph(0, 0)


def test_member_graph_parses_once_and_hands_out_copies(tables, monkeypatch):
    held = tables["plane-connected"]
    tbl = ClassTable(held.gclass, held._members)  # nothing parsed yet
    parses = []
    real_read_graph = table_mod.read_graph

    def counted_read_graph(r):
        parses.append(r.pos)
        return real_read_graph(r)

    monkeypatch.setattr(table_mod, "read_graph", counted_read_graph)
    m, i = 5, tbl.num(5) // 2
    original = read_graph(bit_reader(tbl.member_code(m, i)))
    g = tbl.member_graph(m, i)
    g.insert_leaf(0)
    again = tbl.member_graph(m, i)
    assert labeled_equal(again, original)
    assert again is not tbl.member_graph(m, i)
    assert len(parses) == 1
    # A parsed table keeps the graphs it read: no member is parsed again.
    bits = tbl.serialize()
    back = ClassTable.from_bytes(bits.to_bytes(), len(bits), tbl.gclass)
    parses.clear()
    h = back.member_graph(m, i)
    h.insert_leaf(0)
    assert labeled_equal(back.member_graph(m, i), original)
    assert parses == []


# -- serialization ----------------------------------------------------------------


def test_serialize_roundtrip(tables):
    for tbl in tables.values():
        bits = tbl.serialize()
        back = ClassTable.from_bytes(bits.to_bytes(), len(bits), tbl.gclass, verify=True)
        assert back.name == tbl.name
        assert back.counts() == tbl.counts()
        for m in range(1, TABLE_CAP + 1):
            for i in range(tbl.num(m)):
                assert back.member_code(m, i) == tbl.member_code(m, i)


def test_serialize_deterministic(tables):
    tbl = tables["plane-connected"]
    rebuilt = ClassTable(tbl.gclass, [list(codes) for codes in tbl._members])
    assert rebuilt.serialize() == tbl.serialize()


def test_deserialize_rejects_trailing_bits(tables):
    tbl = tables["forest-deg5"]
    bits = tbl.serialize()
    padded = bits + bits.slice(0, 1)
    with pytest.raises(CodecError):
        ClassTable.from_bytes(padded.to_bytes(), len(padded), tbl.gclass)


def test_deserialize_consumes_exactly(tables):
    tbl = tables["forest-deg5"]
    r = bit_reader(tbl.serialize())
    ClassTable.deserialize_from(r, tbl.gclass)
    assert r.remaining == 0


def test_read_table_uses_the_held_table_only_on_an_exact_match(monkeypatch, tables):
    held = tables["forest-deg5"]
    bits = held.serialize()
    r = bit_reader(bits + bits)
    assert read_table(r, "forest-deg5") is held and r.pos == len(bits)
    # Same class but other members: parsed, not taken from the memo.
    fewer = [list(codes) for codes in held._members]
    fewer[4].pop()
    other = ClassTable(held.gclass, fewer).serialize()
    r = bit_reader(other)
    got = read_table(r, "forest-deg5")
    assert got is not held and r.remaining == 0
    assert got.counts() == [c - (m == 4) for m, c in enumerate(held.counts(), 1)]
    # A table the process does not hold is parsed too, as the table class
    # of the class it is read for.
    monkeypatch.setattr(table_mod, "_TABLE_MEMO", {})
    r = bit_reader(bits)
    got = read_table(r, "forest-deg5")
    assert got is not held and got.serialize() == bits and r.remaining == 0
    tri = tables["plane-triangulation"]
    got = read_table(bit_reader(tri.serialize()), "plane-triangulation")
    assert got.gclass is CLASSES["plane-connected"] and got.counts() == tri.counts()


def test_serialized_table_starts_with_the_size_1_count(tables):
    # No class id and no cap: the stream is the member count and codes of
    # each size from 1 to the cap, so its first field is the one member of
    # size 1.
    for tbl in tables.values():
        r = bit_reader(tbl.serialize())
        assert r.read_uint() == tbl.num(1) == 1
        for m in range(1, TABLE_CAP + 1):
            if m > 1:
                assert r.read_uint() == tbl.num(m)
            for i in range(tbl.num(m)):
                assert r.read_bits(len(tbl.member_code(m, i))) == tbl.member_code(m, i)
        assert r.remaining == 0


# Bit length and sha256 of ``serialize().to_bytes()`` of each freshly
# enumerated table: pins every member code, not only the counts.
SERIALIZED_DIGESTS = {
    "planar": (24913, "f51a318eec1b65fd6ca05015408ce50b491c984a8b97aa7d36a436c10753e9a3"),
    "plane-connected": (21552, "676b042489ca04a34eaa5cd1caa73a55e722aa0bf2c63f42d5d84d26ce01dbbe"),
    "forest-deg5": (1428, "709f234de4fe5eddff719ebcdf71a1fb27d876e5c279ed4c8d118877150558bb"),
}


@pytest.mark.parametrize("name", list(SERIALIZED_DIGESTS))
def test_enumerated_table_serialization_is_pinned(name):
    gclass = CLASSES[name]
    bits = ClassTable(gclass, _enumerate_members(gclass, TABLE_CAP)).serialize()
    assert (len(bits), hashlib.sha256(bits.to_bytes()).hexdigest()) == SERIALIZED_DIGESTS[name]


def test_enumeration_relabels_each_connected_member_once(monkeypatch):
    # Candidates are deduplicated by canonical stream before a relabel: of
    # the 2,292 candidates that pass the class check, only the 291 distinct
    # members are relabeled.
    calls = []
    relabel = EmbeddedGraph.relabel

    def counted_relabel(g, perm):
        calls.append(g.n)
        return relabel(g, perm)

    monkeypatch.setattr(EmbeddedGraph, "relabel", counted_relabel)
    members = _enumerate_members(CLASSES["plane-connected"], TABLE_CAP)
    assert len(calls) == sum(map(len, members)) == 291


# -- building, caps, cache ---------------------------------------------------------


def test_build_default_cap():
    tbl = build_table("planar")
    assert len(tbl.counts()) == TABLE_CAP
    with pytest.raises(ValueError):
        tbl.num(TABLE_CAP + 1)


def test_get_class_unknown():
    with pytest.raises(ValueError):
        get_class("chordal")


def test_forest_enumeration_above_standard_cap():
    members = _enumerate_members(CLASSES["forest-deg5"], 7)
    # 13 embedded trees on 7 nodes (11 abstract trees, minus the degree-6
    # star, plus one chiral spider pair and one rotation-split spider) plus
    # 26 disconnected compositions.
    assert len(members[7]) == 39
    graphs = [read_graph(bit_reader(code)) for code in members[7]]
    assert sum(1 for g in graphs if g.connected) == 13


# The cache tests build the forest table under an empty memo, so a build
# reads or writes the directory it is given.


def test_disk_cache_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setattr(table_mod, "_TABLE_MEMO", {})
    built = build_table("forest-deg5", cache_dir=str(tmp_path))
    path = tmp_path / "forest-deg5.tbl"
    assert path.read_bytes()[:5] == b"PLTB\x02"

    table_mod._TABLE_MEMO.clear()
    loaded = build_table("forest-deg5", cache_dir=str(tmp_path))
    assert loaded is not built
    assert loaded.counts() == built.counts()
    assert loaded.serialize() == built.serialize()


def test_disk_cache_corruption_triggers_rebuild(tmp_path, monkeypatch):
    monkeypatch.setattr(table_mod, "_TABLE_MEMO", {})
    built = build_table("forest-deg5", cache_dir=str(tmp_path))
    path = tmp_path / "forest-deg5.tbl"
    path.write_bytes(b"PLTB\x02" + b"\x00" * 8 + b"garbage")

    table_mod._TABLE_MEMO.clear()
    again = build_table("forest-deg5", cache_dir=str(tmp_path))
    assert again.counts() == built.counts()


def test_cache_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("PLANCODE_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(table_mod, "_TABLE_MEMO", {})
    build_table("plane-triangulation")
    assert (tmp_path / "plane-connected.tbl").exists()


def test_build_deterministic(tmp_path, monkeypatch):
    # Two different empty directories, so the second build cannot load the
    # first one's file.
    monkeypatch.setattr(table_mod, "_TABLE_MEMO", {})
    a = build_table("forest-deg5", cache_dir=str(tmp_path / "a")).serialize()
    table_mod._TABLE_MEMO.clear()
    b = build_table("forest-deg5", cache_dir=str(tmp_path / "b")).serialize()
    assert a == b
