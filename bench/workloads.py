"""The benchmark's workloads: which inputs one round encodes and decodes.

Sizes and counts are fixed per workload; the seed picks the shapes and the
node labels.  So every seed gives the same number of operations per round,
and the figures of two seeds differ only by the graphs' shapes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import gen
from checks import check_member


@dataclass(frozen=True)
class Input:
    name: str
    rows: list
    # Hits the zero-parts fault: encode raises "part count out of range".
    # Such inputs do not depend on the seed.
    zero_parts: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    class_name: str
    inline_table: bool
    inputs: list


TRIANGULATION_SIZES = (400, 1600, 6400)

FOREST_BIG_TREE = 2000
# Small trees per forest, each size this many times: up to the class's
# table cap (6 nodes) a tree takes the single-code bypass.
FOREST_SMALL_SIZES = range(1, 7)
FOREST_SMALL_REPEAT = 8
# Trees of 7 to about 20 nodes are left out: on some shapes they hit the
# zero-parts fault, which would make the failure count depend on the seed.
FOREST_MEDIUM_SIZES = (40, 48, 56, 64, 72, 80, 96, 128)
FORESTS_PER_ROUND = 4

THINNED_SIZES = (20, 25, 35, 45, 60, 80, 100, 130, 170, 220, 290, 380, 500, 650, 800)
TREE_SIZES = (25, 40, 60, 100, 150, 250, 400, 600, 800)
WHEEL_RIMS = (12, 20, 40, 70, 120, 200, 300, 400)
# Every size above is drawn this many times per round, with its own shape.
COLLECTION_COPIES = 2
# Antiprisms C_2k(1,2) and wheels with a one-node tail: the mop-up level puts
# every node of the triangulated host in the center, so no part is left.
ZERO_PARTS_ANTIPRISMS = (4, 32)
ZERO_PARTS_WHEEL_RIMS = (6, 40)


def _triangulations(rng: random.Random) -> list[Input]:
    return [
        Input(f"stacked-{n}", gen.shuffled(gen.stacked_triangulation(n, rng), rng))
        for n in TRIANGULATION_SIZES
    ]


def _forest(rng: random.Random) -> list[list[int]]:
    trees = [gen.random_tree(FOREST_BIG_TREE, rng, max_degree=5)]
    for size in FOREST_SMALL_SIZES:
        for _ in range(FOREST_SMALL_REPEAT):
            trees.append(gen.random_tree(size, rng, max_degree=5))
    for size in FOREST_MEDIUM_SIZES:
        trees.append(gen.random_tree(size, rng, max_degree=5))
    rng.shuffle(trees)
    return gen.shuffled(gen.disjoint_union(trees), rng)


def _forests(rng: random.Random) -> list[Input]:
    return [Input(f"forest-{i}", _forest(rng)) for i in range(FORESTS_PER_ROUND)]


def _collection(rng: random.Random) -> list[Input]:
    out = []
    for _ in range(COLLECTION_COPIES):
        for n in THINNED_SIZES:
            rows = gen.thinned_triangulation(n, rng)
            out.append(Input(f"thinned-{n}", gen.shuffled(rows, rng)))
        for n in TREE_SIZES:
            out.append(Input(f"tree-{n}", gen.shuffled(gen.random_tree(n, rng), rng)))
        for k in WHEEL_RIMS:
            tail = rng.randint(2, k // 2)
            rows = gen.wheel_with_tail(k, tail)
            out.append(Input(f"wheel-{k}-tail-{tail}", gen.shuffled(rows, rng)))
    for k in ZERO_PARTS_ANTIPRISMS:
        out.append(Input(f"antiprism-{2 * k}", gen.antiprism(k), zero_parts=True))
    for k in ZERO_PARTS_WHEEL_RIMS:
        out.append(Input(f"wheel-{k}-tail-1", gen.wheel_with_tail(k, 1), zero_parts=True))
    return out


WORKLOADS = {
    "triangulations": ("plane-triangulation", True, _triangulations),
    "forests": ("forest-deg5", True, _forests),
    "connected-collection": ("plane-connected", False, _collection),
}


def make(name: str, seed: int) -> Workload:
    """The workload's inputs for a seed, each checked against the class."""
    class_name, inline, build = WORKLOADS[name]
    inputs = build(random.Random(seed))
    for inp in inputs:
        check_member(inp.rows, class_name)
    return Workload(name, class_name, inline, inputs)
