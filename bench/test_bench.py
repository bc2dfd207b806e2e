"""Fast tests for the benchmark's generators and checkers.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import gen  # noqa: E402
import workloads  # noqa: E402
from checks import (  # noqa: E402
    CheckFailed,
    check_member,
    check_roundtrip,
    check_stats,
    face_lengths,
    shape,
)


def test_stacked_triangulation_is_a_triangulation():
    rows = gen.stacked_triangulation(200, random.Random(5))
    v, e, f, c = shape(rows)
    assert (v, e, f, c) == (200, 3 * 200 - 6, 2 * 200 - 4, 1)
    check_member(rows, "plane-triangulation")


def test_thinned_triangulation_has_2n_edges():
    rows = gen.thinned_triangulation(150, random.Random(2))
    assert shape(rows)[1] == 300
    check_member(rows, "plane-connected")


def test_degree_capped_tree():
    rows = gen.random_tree(500, random.Random(9), max_degree=5)
    assert max(map(len, rows)) <= 5
    check_member(rows, "forest-deg5")


@pytest.mark.parametrize("k,tail", [(4, 0), (6, 1), (40, 7)])
def test_wheel_with_tail_is_plane(k, tail):
    rows = gen.wheel_with_tail(k, tail)
    assert shape(rows)[:2] == (k + 1 + tail, 2 * k + tail)
    check_member(rows, "plane-connected")


def test_antiprism_is_plane_and_4_regular():
    rows = gen.antiprism(5)
    assert all(len(r) == 4 for r in rows)
    assert sorted(face_lengths(rows)) == [3] * 10 + [5, 5]
    check_member(rows, "plane-connected")


def test_member_checks_reject_wrong_class():
    with pytest.raises(CheckFailed):
        check_member(gen.grid(3, 3), "plane-triangulation")
    with pytest.raises(CheckFailed):
        check_member(gen.wheel_with_tail(5, 0), "forest-deg5")
    with pytest.raises(CheckFailed):
        check_member(gen.disjoint_union([gen.grid(2, 2)] * 2), "plane-connected")
    star6 = [[1, 2, 3, 4, 5, 6]] + [[0]] * 6
    with pytest.raises(CheckFailed):
        check_member(star6, "forest-deg5")


def test_plane_check_rejects_a_twisted_rotation():
    rows = gen.grid(3, 3)
    rows[4] = [rows[4][1], rows[4][0], *rows[4][2:]]
    with pytest.raises(CheckFailed, match="not plane"):
        check_member(rows, "plane-connected")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workloads_are_seeded(name):
    a = workloads.make(name, 3)
    b = workloads.make(name, 3)
    c = workloads.make(name, 4)
    assert [i.rows for i in a.inputs] == [i.rows for i in b.inputs]
    assert [i.rows for i in a.inputs] != [i.rows for i in c.inputs]
    # The number of operations and the failing inputs do not depend on the seed.
    assert [i.zero_parts for i in a.inputs] == [i.zero_parts for i in c.inputs]
    assert [i.rows for i in a.inputs if i.zero_parts] == [
        i.rows for i in c.inputs if i.zero_parts
    ]


def _encoded(rows, class_name, cache_dir):
    from plancode import EmbeddedGraph, decode, encode

    res = encode(EmbeddedGraph.from_rotations(rows), class_name, cache_dir=str(cache_dir))
    return res, decode(res.data, cache_dir=str(cache_dir)).to_rotations()


def _encoded_traced(tracer, rows, cache_dir):
    from plancode import EmbeddedGraph, encode

    g = EmbeddedGraph.from_rotations(rows)
    return tracer.span("codec.encode", encode, g, "plane-connected", cache_dir=str(cache_dir))


def test_roundtrip_check_accepts_codec_output(tmp_path):
    rows = gen.shuffled(gen.thinned_triangulation(60, random.Random(1)), random.Random(1))
    res, decoded = _encoded(rows, "plane-connected", tmp_path)
    check_roundtrip(decoded, rows, res.labeling)
    check_stats(res.data, res.stats, len(rows), 1)


def test_roundtrip_check_rejects_a_different_graph(tmp_path):
    rows = gen.shuffled(gen.thinned_triangulation(60, random.Random(1)), random.Random(1))
    res, decoded = _encoded(rows, "plane-connected", tmp_path)
    v = next(v for v, r in enumerate(decoded) if len(r) >= 3)
    mirrored = [list(r) for r in decoded]
    mirrored[v] = [mirrored[v][0], *reversed(mirrored[v][1:])]
    with pytest.raises(CheckFailed):
        check_roundtrip(mirrored, rows, res.labeling)
    swapped = list(res.labeling)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    with pytest.raises(CheckFailed):
        check_roundtrip(decoded, rows, swapped)


def test_stats_check_rejects_wrong_accounting(tmp_path):
    import dataclasses

    rows = gen.random_tree(40, random.Random(4), max_degree=5)
    res, _ = _encoded(rows, "forest-deg5", tmp_path)
    with pytest.raises(CheckFailed):
        check_stats(res.data + b"\0", res.stats, len(rows), 1)
    bad = dataclasses.replace(res.stats, fix_bits=res.stats.fix_bits + 1)
    with pytest.raises(CheckFailed):
        check_stats(res.data, bad, len(rows), 1)


def test_tracer_records_nested_spans_and_restores_the_library(tmp_path):
    import plancode.codec as codec
    from plancode.table import ClassTable

    import spans

    before = (codec.stats, codec.build_separations, ClassTable.__dict__["index_of"])
    tracer = spans.Tracer()
    tracer.install()
    try:
        rows = gen.thinned_triangulation(80, random.Random(3))
        _encoded_traced(tracer, rows, tmp_path)
    finally:
        tracer.uninstall()
    assert (codec.stats, codec.build_separations, ClassTable.__dict__["index_of"]) == before
    totals = tracer.totals()
    assert {"codec.encode", "codec.stats", "separation.build_separations",
            "planar_sep.decompose_cut", "table.index_of", "recovery.encode_level"} <= set(totals)
    for total, self_s, calls in totals.values():
        assert calls >= 1 and 0 <= self_s <= total
    enc_total, enc_self, _ = totals["codec.encode"]
    assert enc_self < enc_total
    # Spans under the self-parse are left out of the per-layer totals.
    assert "recovery.decode_level_from" not in totals
    assert tracer.separations and all(c <= n for c, n, _p in tracer.separations)

