import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies

from plancode.bits import BitWriter
from plancode.embgraph import (
    EmbeddedGraph,
    _triangulate_into,
    anchored,
    canonical_code,
    canonical_form,
    canonical_labeling,
    labeled_equal,
    read_contour,
    read_graph,
    write_graph,
    write_part_contour_into,
)
from plancode.errors import ChecksFailed, CodecError, InvalidEmbedding

from oracles import (
    K4_PLANAR,
    K5_TORUS,
    K7_TORUS,
    OCTAHEDRON,
    all_connected_embedded_graphs,
    bit_reader,
    boundary_subgraph_edges,
    bounded_degree_tree_rotations,
    brute_iso,
    capped_antiprism_rotations,
    darts_to_rows,
    grid_rotations,
    induced_edges,
    interleaved_union,
    nx_rotations,
    part_graph,
    random_planar_embedded,
    random_tree_rotations,
    reference_euler,
    reference_from_rotations,
    rot_component_count,
    rot_genus,
    to_nx,
    torus_grid_rotations,
    triangulate as oracle_triangulate,
    wheel_with_tail,
    wheel_with_tails,
    write_contour_into,
)


# -- construction / validation -------------------------------------------------


def test_from_rotations_rejects_self_loop():
    with pytest.raises(InvalidEmbedding):
        EmbeddedGraph.from_rotations([[0]])


def test_from_rotations_rejects_repeated_neighbor():
    with pytest.raises(InvalidEmbedding):
        EmbeddedGraph.from_rotations([[1, 1], [0, 0]])


def test_from_rotations_rejects_asymmetry():
    with pytest.raises(InvalidEmbedding):
        EmbeddedGraph.from_rotations([[1], []])
    with pytest.raises(InvalidEmbedding):
        EmbeddedGraph.from_rotations([[1], [0, 2], [0]])


def test_from_rotations_rejects_out_of_range():
    with pytest.raises(InvalidEmbedding):
        EmbeddedGraph.from_rotations([[2], [0]])


# Every kind of rejection, with the message it raises.
REJECTED_ROWS = [
    ([[1.5], [0]], "neighbor 1.5 out of range at node 0"),
    ([[1], [0, "2"], [1]], "neighbor '2' out of range at node 1"),
    ([[1], [0, None]], "neighbor None out of range at node 1"),
    ([[2], [0]], "neighbor 2 out of range at node 0"),
    ([[1], [-1]], "neighbor -1 out of range at node 1"),
    ([[0]], "self-loop at node 0"),
    ([[1], [0, 1]], "self-loop at node 1"),
    # repeated at the smaller endpoint: the edge is opened twice
    ([[1, 2, 1], [0], [0]], "repeated neighbor 1 at node 0"),
    ([[1, 1], [0, 0]], "repeated neighbor 1 at node 0"),
    # repeated at the larger endpoint: its second close finds nothing open
    ([[1], [0, 2, 0], [1]], "repeated neighbor 0 at node 1"),
    ([[], [0, 0]], "repeated neighbor 0 at node 1"),
    ([[1, 2], [2, 0], [0, 1, 0]], "repeated neighbor 0 at node 2"),
    ([[1], [0, 2], [0]], "edge (2,0) missing from node 0's rotation"),
    ([[2], [], [1, 0]], "edge (2,1) missing from node 1's rotation"),
    ([[1], []], "asymmetric rotation lists"),
    ([[1, 2], [0, 2], [0]], "asymmetric rotation lists"),
    # more edges opened than the entries can close
    ([[1, 2], [], [0]], "asymmetric rotation lists"),
    ([[1, 2, 3], [], [], []], "asymmetric rotation lists"),
]


@pytest.mark.parametrize("rows, message", REJECTED_ROWS)
def test_from_rotations_rejection_messages(rows, message):
    for build in (EmbeddedGraph.from_rotations, reference_from_rotations):
        with pytest.raises(InvalidEmbedding) as exc:
            build(rows)
        assert str(exc.value) == message


def test_from_rotations_reads_bools_as_ints():
    # bool is an int: True is node 1, and False node 0.
    g = EmbeddedGraph.from_rotations([[True], [False]])
    assert g.to_rotations() == [[1], [0]]
    assert _dart_arrays(g) == reference_from_rotations([[1], [0]])
    with pytest.raises(InvalidEmbedding, match="self-loop at node 1"):
        EmbeddedGraph.from_rotations([[1], [0, True]])


def _dart_arrays(g):
    return g.node_of, g.nxt, g.first


@strategies.composite
def _rotation_rows(draw):
    """Rotation rows, valid or not: plane graphs, torus grids and sampled
    rotations of nonplanar graphs, side by side with isolated nodes,
    relabeled at random; then at most one mutation of one row."""
    rng = random.Random(draw(strategies.integers(0, 1 << 16)))
    rows: list = []
    for _ in range(draw(strategies.integers(1, 3))):
        kind = draw(strategies.sampled_from(["stacked", "sparse", "tree", "torus", "nonplanar", "node"]))
        n = draw(strategies.integers(1, 30))
        if kind in ("stacked", "sparse"):
            piece = random_planar_embedded(n, 1.0 if kind == "stacked" else 0.1, rng).to_rotations()
        elif kind == "tree":
            piece = random_tree_rotations(n, rng)
        elif kind == "torus":
            piece = torus_grid_rotations(3 + n % 4)
        elif kind == "nonplanar":
            piece = [[w for w in range(5) if w != v] for v in range(5)]  # K5
            for row in piece:
                rng.shuffle(row)
        else:
            piece = [[]]
        offset = len(rows)
        rows.extend([w + offset for w in row] for row in piece)
    n = len(rows)
    perm = list(range(n))
    rng.shuffle(perm)
    out = [None] * n
    for v, row in enumerate(rows):
        out[perm[v]] = [perm[w] for w in row]
    u = rng.randrange(n)
    row = out[u]
    mutation = draw(
        strategies.sampled_from(
            ["none", "drop", "repeat", "self-loop", "out-of-range", "non-int", "replace", "add"]
        )
    )
    if mutation == "drop" and row:
        del row[rng.randrange(len(row))]
    elif mutation == "repeat" and row:
        row.insert(rng.randrange(len(row) + 1), rng.choice(row))
    elif mutation == "self-loop":
        row.insert(rng.randrange(len(row) + 1), u)
    elif mutation == "out-of-range":
        row.insert(rng.randrange(len(row) + 1), rng.choice([n, n + 3, -1]))
    elif mutation == "non-int":
        row.insert(rng.randrange(len(row) + 1), rng.choice([1.5, float(u ^ 1), "0", None]))
    elif mutation == "replace" and row and n > 2:
        i = rng.randrange(len(row))
        row[i] = rng.choice([w for w in range(n) if w != u and w != row[i]])
    elif mutation == "add" and n > 1:
        row.insert(rng.randrange(len(row) + 1), rng.choice([w for w in range(n) if w != u]))
    return out


@settings(max_examples=300, deadline=None)
@given(_rotation_rows())
def test_from_rotations_matches_two_pass_reference(rows):
    try:
        want = reference_from_rotations(rows)
    except InvalidEmbedding as exc:
        with pytest.raises(InvalidEmbedding) as got:
            EmbeddedGraph.from_rotations(rows)
        assert str(got.value) == str(exc)
        return
    g = EmbeddedGraph.from_rotations(rows)
    assert _dart_arrays(g) == want
    assert g.euler() == reference_euler(g)


@settings(max_examples=200, deadline=None)
@given(_rotation_rows().filter(lambda rows: _valid(rows)))
def test_euler_matches_search_and_trace(rows):
    g = EmbeddedGraph.from_rotations(rows)
    genus, ncomp = g.euler()
    assert (genus, ncomp) == reference_euler(g)
    assert (genus, ncomp) == (rot_genus(rows), rot_component_count(rows))
    assert genus == g.genus()


def _valid(rows) -> bool:
    try:
        reference_from_rotations(rows)
    except InvalidEmbedding:
        return False
    return True


def test_euler_counts_isolated_nodes_components_and_handles():
    assert EmbeddedGraph().euler() == (0, 0)
    assert EmbeddedGraph.from_rotations([[]] * 5).euler() == (0, 5)
    rng = random.Random(5)
    trees = [random_tree_rotations(n, rng) for n in (1, 2, 7, 30)]
    forest = interleaved_union(trees * 10 + [[[], []]], rng)
    assert forest.euler() == reference_euler(forest) == (0, 42)
    for k in (3, 4, 9):
        torus = EmbeddedGraph.from_rotations(torus_grid_rotations(k))
        assert torus.euler() == reference_euler(torus) == (1, 1)
    two = interleaved_union(
        [torus.to_rotations(), K7_TORUS, forest.to_rotations()], rng
    )
    assert two.euler() == reference_euler(two) == (2, 44)


def test_empty_and_isolated():
    g = EmbeddedGraph.from_rotations([[], [], []])
    assert g.n == 3 and g.num_edges == 0
    assert g.genus() == 0
    assert len(g.components()) == 3
    assert not g.connected


# -- faces and genus -------------------------------------------------------------


def test_face_counts_known_graphs():
    t = EmbeddedGraph.from_rotations([[1, 2], [2, 0], [0, 1]])
    assert len(t.faces()) == 2 and t.genus() == 0
    k4 = EmbeddedGraph.from_rotations(K4_PLANAR)
    assert len(k4.faces()) == 4 and k4.genus() == 0
    octa = EmbeddedGraph.from_rotations(OCTAHEDRON)
    assert octa.n == 6 and octa.num_edges == 12
    assert len(octa.faces()) == 8 and octa.genus() == 0
    assert all(len(f) == 3 for f in octa.faces())


def test_face_walks_partition_darts():
    rng = random.Random(5)
    for _ in range(20):
        g = EmbeddedGraph.from_rotations(random_tree_rotations(12, rng))
        darts = [d for f in g.faces() for d in f]
        assert sorted(darts) == list(range(g.num_darts))


def test_tree_has_one_face():
    rng = random.Random(9)
    for n in (2, 5, 30):
        g = EmbeddedGraph.from_rotations(random_tree_rotations(n, rng))
        assert len(g.faces()) == 1
        assert g.genus() == 0


def test_torus_fixtures():
    k5 = EmbeddedGraph.from_rotations(K5_TORUS)
    assert k5.genus() == 1
    k7 = EmbeddedGraph.from_rotations(K7_TORUS)
    assert k7.genus() == 1
    assert all(len(f) == 3 for f in k7.faces())


def test_nonplanar_graphs_have_positive_genus_all_sampled_rotations():
    rng = random.Random(1)
    for G in (nx.complete_graph(5), nx.complete_bipartite_graph(3, 3), nx.petersen_graph()):
        nodes = sorted(G.nodes)
        relab = {v: i for i, v in enumerate(nodes)}
        adj = [sorted(relab[w] for w in G.neighbors(v)) for v in nodes]
        for _ in range(50):
            rots = []
            for row in adj:
                row = row[:]
                rng.shuffle(row)
                rots.append(row)
            assert EmbeddedGraph.from_rotations(rots).genus() >= 1


def test_genus_additive_over_components():
    # K5 torus piece + planar K4 + isolated node: total genus 1
    rots = [[v + 0 for v in row] for row in K5_TORUS]
    offset = 5
    rots += [[v + offset for v in row] for row in K4_PLANAR]
    rots.append([])
    g = EmbeddedGraph.from_rotations(rots)
    assert g.genus() == 1
    assert len(g.components()) == 3


def test_planarity_cross_check_with_networkx():
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randrange(4, 12)
        G = nx.gnp_random_graph(n, 0.4, seed=rng.randrange(1 << 30))
        rots = nx_rotations(G)
        if rots is None:
            continue
        g = EmbeddedGraph.from_rotations(rots)
        assert g.genus() == 0  # nx embedding must be recognized as planar
        assert to_nx(g).edges == G.edges


# -- mutation primitives ----------------------------------------------------------


def test_insert_chord_splits_face():
    # square face: 0-1-2-3
    g = EmbeddedGraph.from_rotations([[3, 1], [0, 2], [1, 3], [2, 0]])
    faces = g.faces()
    assert sorted(len(f) for f in faces) == [4, 4]
    inner = faces[0]
    # chord between the corners at positions 0 and 2 of the walk, each after
    # the twin of the walk dart arriving there
    g.insert_chord(inner[-1] ^ 1, inner[1] ^ 1)
    assert sorted(len(f) for f in g.faces()) == [3, 3, 4]
    assert g.genus() == 0
    assert g.num_edges == 5


def test_insert_leaf_keeps_face_count():
    g = EmbeddedGraph.from_rotations([[1, 2], [2, 0], [0, 1]])
    nfaces = len(g.faces())
    w, _, _ = g.insert_leaf(g.first[0])
    assert w == 3
    assert len(g.faces()) == nfaces
    assert g.genus() == 0
    assert g.degree(3) == 1


# -- triangulate -------------------------------------------------------------------


def triangulate(g: EmbeddedGraph) -> EmbeddedGraph:
    """A copy of g, triangulated in place by ``_triangulate_into``."""
    out = g.copy()
    _triangulate_into(out)
    return out


def _check_triangulation(orig: EmbeddedGraph, tri: EmbeddedGraph):
    assert tri.n == orig.n
    assert all(len(f) == 3 for f in tri.faces())
    assert tri.genus() == orig.genus()
    assert set(orig.edges()) <= set(tri.edges())
    # simplicity is enforced by from_rotations in to_rotations round trip
    EmbeddedGraph.from_rotations(tri.to_rotations())


def test_triangulate_path_and_star():
    p = EmbeddedGraph.from_rotations([[1], [0, 2], [1]])
    _check_triangulation(p, triangulate(p))
    s = EmbeddedGraph.from_rotations([[1, 2, 3, 4, 5], [0], [0], [0], [0], [0]])
    _check_triangulation(s, triangulate(s))


def test_triangulate_trees():
    rng = random.Random(23)
    for n in (3, 4, 7, 20, 60):
        for _ in range(5):
            g = EmbeddedGraph.from_rotations(random_tree_rotations(n, rng))
            t = triangulate(g)
            _check_triangulation(g, t)
            assert t.num_edges == 3 * n - 6


def test_triangulate_random_planar():
    rng = random.Random(31)
    for _ in range(25):
        g = random_planar_embedded(rng.randrange(4, 25), 0.35, rng)
        t = triangulate(g)
        _check_triangulation(g, t)
        assert t.num_edges == 3 * t.n - 6


def test_triangulate_deterministic():
    rng = random.Random(37)
    g = random_planar_embedded(15, 0.3, rng)
    assert labeled_equal(triangulate(g), triangulate(g))


def test_triangulate_already_triangulated_is_identity():
    octa = EmbeddedGraph.from_rotations(OCTAHEDRON)
    assert labeled_equal(triangulate(octa), octa)


def _triangulate_inputs():
    rng = random.Random(2538)
    out = []
    for n in (3, 4, 9, 40, 300):
        out.append(EmbeddedGraph.from_rotations(random_tree_rotations(n, rng)))
        out.append(EmbeddedGraph.from_rotations(bounded_degree_tree_rotations(n, rng)))
    out += [
        EmbeddedGraph.from_rotations(grid_rotations(r, c))
        for r, c in ((1, 5), (2, 2), (3, 7), (12, 13))
    ]
    out += [
        EmbeddedGraph.from_rotations(wheel_with_tails(rim, tail))
        for rim, tail in ((5, 1), (12, 4), (60, 8))
    ]
    out += [EmbeddedGraph.from_rotations(wheel_with_tail(40, 12))]
    for n in (5, 30, 200):
        # thinned to about 1.5n and 2.5n edges, and stacked
        out.append(random_planar_embedded(n, 3.0 / n, rng))
        out.append(random_planar_embedded(n, 5.0 / n, rng))
        out.append(random_planar_embedded(n, 1.0, rng))
    # already triangulated
    out += [
        EmbeddedGraph.from_rotations(OCTAHEDRON),
        EmbeddedGraph.from_rotations(capped_antiprism_rotations(7)),
        EmbeddedGraph.from_rotations(K7_TORUS),
    ]
    # triangulations with nodes deleted: mostly triangles, a few large faces
    for n, keep in ((60, 0.9), (300, 0.95), (300, 0.7)):
        tri = random_planar_embedded(n, 1.0, rng)
        sub, _ = tri.induced(v for v in range(n) if rng.random() < keep)
        out.append(sub.induced(max(sub.components(), key=len))[0])
    out.append(EmbeddedGraph.from_rotations(torus_grid_rotations(5)))
    return [g if k % 2 else _shuffled(g, rng) for k, g in enumerate(out)]


def test_triangulate_matches_oracle():
    # Only the faces that are not triangles are traced, with an adjacency
    # set over their nodes; the chords and their numbering are the same as
    # clipping every face with a set of all edges.
    for g in _triangulate_inputs():
        want = oracle_triangulate(g)
        before = _arrays(g)
        assert _arrays(triangulate(g)) == _arrays(want)
        assert _arrays(g) == before  # the input is not touched


# -- induced / part graphs ---------------------------------------------------------


def test_induced_matches_oracle():
    rng = random.Random(41)
    for _ in range(20):
        g = random_planar_embedded(12, 0.35, rng)
        keep = {v for v in range(g.n) if rng.random() < 0.5}
        sub, ids = g.induced(keep)
        assert ids == sorted(keep)
        got = {(min(ids[u], ids[v]), max(ids[u], ids[v])) for u, v in sub.edges()}
        assert got == induced_edges(g, keep)
        # rotation order preserved: induced rotation is a subsequence of the
        # original cyclic order
        for i, v in enumerate(ids):
            orig = g.neighbors(v)
            subnbrs = [ids[w] for w in sub.neighbors(i)]
            filtered = [w for w in orig if w in keep]
            if not filtered:
                continue
            k = filtered.index(subnbrs[0])
            assert filtered[k:] + filtered[:k] == subnbrs


def test_part_graph_matches_oracle():
    rng = random.Random(43)
    for _ in range(20):
        g = random_planar_embedded(14, 0.35, rng)
        part = {v for v in range(g.n) if rng.random() < 0.3}
        if not part:
            continue
        pg = part_graph(g, part)
        got = {
            (min(pg.ids[u], pg.ids[v]), max(pg.ids[u], pg.ids[v]))
            for u, v in pg.graph.edges()
        }
        assert got == boundary_subgraph_edges(g, part)
        assert {pg.ids[i] for i in pg.boundary} == g.neighbors_of_set(part)


def _arrays(g):
    return g.n, g.node_of, g.nxt, g.first


def _rows_from_first(g, ids, keep_dart):
    """Neighbor rows of the new nodes, each read from the old node's first
    dart, as the subgraph keeps them."""
    idx = {v: i for i, v in enumerate(ids)}
    rows = []
    for v in ids:
        d0 = g.first[v]
        darts = g.rotation_from(d0) if d0 >= 0 else []
        rows.append([idx[g.head(d)] for d in darts if keep_dart(v, g.head(d))])
    return rows


def test_induced_and_part_graph_arrays_equal_from_rotations():
    # The subgraphs number their edges and darts themselves, without a
    # validated rebuild; the arrays must be the ones from_rotations gives.
    rng = random.Random(47)
    hosts = [random_planar_embedded(n, p, rng) for n, p in ((40, 1.0), (60, 0.08), (30, 0.2))]
    hosts.append(oracle_triangulate(EmbeddedGraph.from_rotations(random_tree_rotations(50, rng))))
    hosts.append(EmbeddedGraph.from_rotations(K7_TORUS))
    for g in hosts:
        for frac in (0.2, 0.5, 0.9, 1.0):
            keep = {v for v in range(g.n) if rng.random() < frac}
            if not keep:
                continue
            sub, ids = g.induced(keep)
            rows = _rows_from_first(g, ids, lambda v, w: w in keep)
            assert _arrays(sub) == _arrays(EmbeddedGraph.from_rotations(rows))
            pg = part_graph(g, keep)
            rows = _rows_from_first(g, pg.ids, lambda v, w: v in keep or w in keep)
            assert _arrays(pg.graph) == _arrays(EmbeddedGraph.from_rotations(rows))


def test_part_graph_can_be_disconnected():
    # path x-u-v-y: part {u,v} WITHOUT the u-v edge: u,v each only connect
    # to their boundary node, so the part graph is a path but the part
    # induces no edge; removing boundary-internal edges never reconnects it.
    g = EmbeddedGraph.from_rotations([[1], [0, 2], [1, 3], [2]])
    pg = part_graph(g, {1, 2})
    assert set(pg.graph.edges())  # it's connected here (u-v edge exists in g)
    # now delete the u-v edge from the host: 0-1, 2-3 only
    g2 = EmbeddedGraph.from_rotations([[1], [0], [3], [2]])
    pg2 = part_graph(g2, {1, 2})
    comp = pg2.graph.components()
    assert len(comp) == 2  # {x,u} and {v,y} pieces: part graph disconnected


# -- canonical forms ----------------------------------------------------------------


def test_canonical_exhaustive_small():
    """All connected embedded graphs on <= 4 nodes: canonical codes agree
    exactly with brute-force orientation-preserving isomorphism."""
    for n in (1, 2, 3, 4):
        graphs = list(all_connected_embedded_graphs(n))
        codes = [canonical_code(g) for g in graphs]
        # group by code, verify iso within groups and non-iso across
        by_code = {}
        for g, c in zip(graphs, codes):
            by_code.setdefault(c, []).append(g)
        reps = []
        for c, members in by_code.items():
            for m in members[1:]:
                assert brute_iso(members[0], m)
            reps.append(members[0])
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                assert not brute_iso(reps[i], reps[j])


def test_canonical_invariant_under_relabeling():
    rng = random.Random(53)
    for _ in range(30):
        g = random_planar_embedded(rng.randrange(5, 10), 0.4, rng)
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert canonical_code(g.relabel(perm)) == canonical_code(g)


def _shuffled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabel(perm)


def test_canonical_labeling_is_achieved():
    # A canonically relabeled graph serializes to its own canonical code, so
    # a table lookup needs one canonical labeling.  Symmetric graphs (many
    # minimal start darts) are the case where that could fail.
    rng = random.Random(59)
    inputs = [random_planar_embedded(rng.randrange(4, 9), 0.45, rng) for _ in range(20)]
    inputs += [
        EmbeddedGraph.from_rotations([[(i - 1) % 9, (i + 1) % 9] for i in range(9)]),
        EmbeddedGraph.from_rotations(wheel_with_tail(7, 0)),
        EmbeddedGraph.from_rotations(capped_antiprism_rotations(5)),  # icosahedron
        EmbeddedGraph.from_rotations(K4_PLANAR),
        EmbeddedGraph.from_rotations([[1], [0, 2], [1]]),
    ]
    for base in inputs:
        for g in (base, _shuffled(base, rng)):
            lab = canonical_labeling(g)
            h = g.relabel(lab)
            assert write_graph(h) == canonical_code(g)
            assert canonical_code(h) == canonical_code(g)
            r = bit_reader(canonical_code(g))
            assert labeled_equal(h, read_graph(r)) and r.remaining == 0


def test_canonical_form_refuses_a_disconnected_graph():
    # Every part graph and table member is connected, so a disconnected graph
    # has no canonical labeling: a traversal that misses a component must not
    # come back as a labeling that leaves nodes unlabeled.
    for rows in (
        [[1], [0], [3, 4], [2], [2]],
        [[1, 2], [0], [0], [4], [3]],
        [[1], [0], []],
        [[], []],
        K4_PLANAR + [[5], [4]],
    ):
        g = EmbeddedGraph.from_rotations(rows)
        with pytest.raises(ValueError, match="connected"):
            canonical_form(g)
        with pytest.raises(ValueError, match="connected"):
            canonical_labeling(g)


def test_traversal_stream_varies_with_rotation():
    # same abstract graph, different embeddings of K4 minus an edge
    g1 = EmbeddedGraph.from_rotations([[1, 2, 3], [0, 2], [0, 1, 3], [0, 2]])
    g2 = EmbeddedGraph.from_rotations([[1, 3, 2], [0, 2], [0, 1, 3], [0, 2]])
    # these differ as embeddings (face structures differ)
    f1 = sorted(len(f) for f in g1.faces())
    f2 = sorted(len(f) for f in g2.faces())
    assert f1 != f2
    assert canonical_code(g1) != canonical_code(g2)


def test_canonical_form_single_node():
    g = EmbeddedGraph.from_rotations([[]])
    stream, lab = canonical_form(g)
    assert lab == [0]


# -- serialization ------------------------------------------------------------------


def test_graph_bits_roundtrip():
    rng = random.Random(61)
    cases = [
        EmbeddedGraph.from_rotations([[]]),
        EmbeddedGraph.from_rotations([[], [], []]),
        EmbeddedGraph.from_rotations(OCTAHEDRON),
    ]
    for _ in range(10):
        cases.append(random_planar_embedded(rng.randrange(2, 15), 0.4, rng))
    for g in cases:
        r = bit_reader(write_graph(g))
        assert labeled_equal(read_graph(r), g) and r.remaining == 0


def test_graph_bits_rejects_malformed():
    g = EmbeddedGraph.from_rotations(K4_PLANAR)
    bits = write_graph(g)
    with pytest.raises(CodecError):
        read_graph(bit_reader(bits.slice(0, len(bits) - 3)))
    from plancode.bits import BitWriter

    w = BitWriter()
    w.write_uint(2)
    w.write_uint(1)
    w.write_uint_bits(1, 1)
    w.write_uint(1)
    w.write_uint_bits(1, 1)  # node 1 claims neighbor 1: self-loop
    with pytest.raises(CodecError):
        read_graph(bit_reader(w.build()))


def test_relabel_roundtrip():
    rng = random.Random(67)
    g = random_planar_embedded(10, 0.4, rng)
    perm = list(range(g.n))
    rng.shuffle(perm)
    inv = [0] * g.n
    for i, p in enumerate(perm):
        inv[p] = i
    assert labeled_equal(g.relabel(perm).relabel(inv), g)


# -- contour code ------------------------------------------------------------------


def _uint_bits(x):
    w = BitWriter()
    w.write_uint(x)
    return len(w.build())


@strategies.composite
def _contour_inputs(draw):
    """Rotation rows of a plane graph: stacked and thinned triangulations,
    trees of 1 to 40 nodes, single nodes, single edges and paths, alone or
    as a disjoint union, relabeled at random and with each row started at a
    random entry."""
    rng = random.Random(draw(strategies.integers(0, 1 << 16)))
    rows: list = []
    for _ in range(draw(strategies.integers(1, 4))):
        kind = draw(strategies.sampled_from(["stacked", "thinned", "tree", "node", "edge", "path"]))
        n = draw(strategies.integers(1, 40))
        if kind in ("stacked", "thinned"):
            piece = random_planar_embedded(n, 1.0 if kind == "stacked" else 0.3, rng).to_rotations()
        elif kind == "tree":
            piece = random_tree_rotations(n, rng)
        elif kind == "node":
            piece = [[]]
        elif kind == "edge":
            piece = [[1], [0]]
        else:
            piece = [[w for w in (v - 1, v + 1) if 0 <= w < n] for v in range(n)]
        offset = len(rows)
        rows.extend([w + offset for w in row] for row in piece)
    perm = list(range(len(rows)))
    rng.shuffle(perm)
    out = [None] * len(rows)
    for v, row in enumerate(rows):
        k = rng.randrange(len(row)) if row else 0
        out[perm[v]] = [perm[w] for w in row[k:] + row[:k]]
    return out


@settings(max_examples=200, deadline=None)
@given(_contour_inputs())
def test_contour_code_roundtrip(rows):
    n = len(rows)
    w = BitWriter()
    order = write_contour_into(w, rows)
    bits = w.build()
    assert sorted(order) == list(range(n))
    # Exactly 2(k-1) bits for a tree component of k nodes and 4e for one
    # with e edges and a cycle, plus the framing: the node count, and a flag
    # and an edge count per component.
    comps = EmbeddedGraph.from_rotations(rows).components()
    size = _uint_bits(n)
    for comp in comps:
        k, e = len(comp), sum(len(rows[v]) for v in comp) // 2
        size += 1 + _uint_bits(e) + (2 * (k - 1) if e == k - 1 else 4 * e)
    assert len(bits) == size
    r = bit_reader(bits)
    if len(comps) > 1:
        # The reference writes one COMP per component; read_contour reads
        # one COMP, which closes before the declared node count.
        with pytest.raises(CodecError, match="not the declared"):
            read_contour(r)
        return
    # The host writer, given every node of the graph as the part, walks the
    # graph built from the rows (each node's first dart is its row's first
    # entry) into the same bits, with no boundary.
    host = BitWriter()
    got = write_part_contour_into(host, EmbeddedGraph.from_rotations(rows), list(range(n)), ())
    assert (host.build(), got) == (bits, (order, frozenset()))
    pre = [0] * n
    for i, v in enumerate(order):
        pre[v] = i
    decoded = darts_to_rows(read_contour(r))
    assert r.remaining == 0
    # The rows relabeled in preorder, each up to where it starts.
    want = [[pre[u] for u in rows[v]] for v in order]
    assert [anchored(row) for row in decoded] == [anchored(row) for row in want]
    # Each row but the root's starts at its parent, which comes earlier in
    # preorder.
    assert all(row[0] < v for v, row in enumerate(decoded) if v)


@pytest.mark.parametrize("rows", [K5_TORUS, torus_grid_rotations(4)], ids=["K5", "torus-grid-4x4"])
def test_contour_writer_refuses_positive_genus(rows):
    assert EmbeddedGraph.from_rotations(rows).genus() == 1
    with pytest.raises(ChecksFailed, match="not plane"):
        write_contour_into(BitWriter(), rows)
    g = EmbeddedGraph.from_rotations(rows)
    with pytest.raises(ChecksFailed, match=f"part graph of {g.n} nodes is not plane"):
        write_part_contour_into(BitWriter(), g, list(range(g.n)), ())


@pytest.mark.parametrize(
    "rows,part,message",
    [
        ([[1, 2], [2, 0], [0, 1], [4, 5], [5, 3], [3, 4]], range(6), "6 nodes .* reaches 3"),
        ([[1], [0, 2], [1, 3], [2, 4], [3, 5], [4]], [0, 5], "4 nodes .* reaches 2"),
        ([[], [2], [1]], [0, 1], "3 nodes .* reaches 1"),
    ],
    ids=["two triangles", "path ends and their neighbors", "isolated root"],
)
def test_part_writer_refuses_a_disconnected_part_graph(rows, part, message):
    # Every part graph the codec writes is connected; the writer refuses
    # any other before it writes a bit.
    g = EmbeddedGraph.from_rotations(rows)
    w = BitWriter()
    with pytest.raises(ChecksFailed, match=f"part graph of {message}"):
        write_part_contour_into(w, g, list(part), g.neighbors_of_set(part))
    assert len(w) == 0


def _contour_bits(n, comps):
    """A contour code with the given node count and (flag, edge count,
    symbols) per component."""
    w = BitWriter()
    w.write_uint(n)
    for flag, e, symbols in comps:
        w.write_bit(flag)
        w.write_uint(e)
        w.write_uints(symbols, 1 + flag)
    return w.build()


@pytest.mark.parametrize(
    "n,comps,message",
    [
        (2, [(0, 1, [1, 0])], "close at the root"),
        (2, [(1, 1, [1, 0])], "close at the root"),
        (2, [(1, 1, [3, 2])], "no open edge"),
        (1, [(0, 1, [0, 1])], "more nodes"),
        (3, [(1, 1, [2, 2])], "unmatched"),
        (3, [(0, 1, [0, 0])], "unmatched"),
        (2, [(0, 1 << 20, [0, 1])], "past end"),
        (3, [(0, 1, [0, 1])], "has 2 nodes, not the declared 3"),
        (3, [(0, 1, [0, 1]), (0, 0, [])], "has 2 nodes, not the declared 3"),
        (0, [(0, 0, [])], "has 1 nodes, not the declared 0"),
    ],
    ids=["root close", "root close in a cyclic code", "close with nothing open", "too many nodes",
         "open non-tree edges", "open tree edges", "run past the stream", "too few nodes",
         "a second COMP", "no nodes"],
)
def test_read_contour_rejects_malformed(n, comps, message):
    with pytest.raises(CodecError, match=message):
        read_contour(bit_reader(_contour_bits(n, comps)))
