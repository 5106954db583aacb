"""Seeded random instance generators shared by property and acceptance tests.

Three system flavours keep both verdict branches busy: fully anchored
families (one pair (p, base) per point) are always Frechet, partially
anchored ones tend to leave points uncovered, and free random pairs produce
non-attaining and non-rigid cases. ``random_tree`` draws weighted trees
rooted at the base, whose free spaces have closed-form norms.
"""

from __future__ import annotations

import random
from fractions import Fraction

from lipfree import MoleculeSystem, build_space, build_system, gen_random


def random_space(rng: random.Random, min_points=2, max_points=6):
    n = rng.randint(min_points, max_points)
    profile = (
        "near-degenerate" if n >= 3 and rng.random() < 0.5 else "generic"
    )
    return gen_random(n, seed=rng.randrange(2**30), profile=profile)


def random_weights(rng: random.Random, count: int, normalized=False):
    weights = [
        Fraction(rng.randint(1, 16), rng.randint(1, 16)) for _ in range(count)
    ]
    if normalized:
        total = sum(weights)
        weights = [w / total for w in weights]
    return weights


def random_pairs(rng: random.Random, space, max_pairs=5):
    flavour = rng.random()
    non_base = [p for p in space.points() if p != space.base]
    if flavour < 1 / 3:
        pairs = [(p, space.base) for p in non_base]
    elif flavour < 2 / 3:
        count = rng.randint(1, len(non_base))
        chosen = rng.sample(non_base, count)
        pairs = [(p, space.base) for p in sorted(chosen)]
    else:
        count = rng.randint(1, max_pairs)
        pairs = []
        for _ in range(count):
            x = rng.randrange(len(space))
            y = rng.randrange(len(space))
            while y == x:
                y = rng.randrange(len(space))
            pairs.append((x, y))
    return pairs[:max_pairs] if len(pairs) > max_pairs else pairs


def random_system(
    rng: random.Random, space, max_pairs=5, normalized=False
) -> MoleculeSystem:
    pairs = random_pairs(rng, space, max_pairs)
    return build_system(
        space, pairs, random_weights(rng, len(pairs), normalized=normalized)
    )


def random_tree(rng: random.Random, points: int):
    """``(space, parent, weight)`` for a random weighted tree rooted at the base 0.

    Point p >= 1 hangs from ``parent[p] < p`` by an edge of length
    ``weight[p]``; the metric is the path length, d(p, q) = r(p) + r(q) -
    2 r(lca(p, q)) with r the distance to the root. Index 0 of both lists is
    None.
    """
    parent = [None] + [rng.randrange(p) for p in range(1, points)]
    weight = [None] + [Fraction(rng.randint(1, 12), rng.randint(1, 6)) for _ in range(1, points)]
    root = [Fraction(0)] * points
    ancestors = [{0}] + [set() for _ in range(1, points)]
    for p in range(1, points):
        root[p] = root[parent[p]] + weight[p]
        ancestors[p] = ancestors[parent[p]] | {p}
    dist = [
        [root[p] + root[q] - 2 * max(root[a] for a in ancestors[p] & ancestors[q])
         for q in range(points)]
        for p in range(points)
    ]
    return build_space([str(p) for p in range(points)], dist, "0"), parent, weight
