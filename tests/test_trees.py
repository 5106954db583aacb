"""Closed-form oracles on weighted trees rooted at the base, at up to 64 points.

On a tree the free space is l1 over the edges (Godard, Proc. AMS 2010):
||mu|| = sum over edges e of w_e |mu(T_e)|, T_e being the points below e.
The l1 norm is differentiable exactly where no coordinate is zero, so a
normalized family is Frechet iff it attains and every mu(T_e) != 0, and its
norming function is then sum of sign(mu(T_e)) w_e along the path from the
base. No solver is involved, so these checks reach past the brute-force
oracles' 6-8 points.
"""

import random
from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lipfree import (
    VerdictKind,
    build_system,
    decide,
    element_from_coeffs,
    free_norm,
    to_point_masses,
)
from _instances import random_tree, random_weights

TREES = settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def subtree_masses(parent, coeffs):
    """mu(T_e) for the edge e above each point p >= 1; index 0 is the whole mass."""
    mass = [coeffs.get(p, Fraction(0)) for p in range(len(parent))]
    for p in range(len(parent) - 1, 0, -1):
        mass[parent[p]] += mass[p]
    return mass


def edge_sum(weight, mass):
    """sum over edges e of w_e |mu(T_e)|: the norm, by the l1 identity."""
    return sum((w * abs(m) for w, m in zip(weight[1:], mass[1:])), Fraction(0))


def tree_family(rng, space, parent):
    """A normalized family: half the time anchored, else free pairs.

    An anchored family joins the base to every point or to a random subset,
    as (p, base) or (base, p) alike on each branch at the base: it attains,
    both signs occur, and a subset leaving a subtree empty is not Frechet.
    """
    others = range(1, len(space))
    if rng.random() < 0.5:
        chosen = others if rng.random() < 0.5 else sorted(
            rng.sample(others, rng.randint(1, len(others))))
        branch = [p if parent[p] == 0 else None for p in range(len(space))]
        for p in others:
            branch[p] = branch[p] or branch[parent[p]]
        flip = {p: rng.random() < 0.5 for p in others if parent[p] == 0}
        pairs = [(0, p) if flip[branch[p]] else (p, 0) for p in chosen]
    else:
        pairs = []
        for _ in range(rng.randint(1, 6)):
            x, y = rng.sample(range(len(space)), 2)
            pairs.append((x, y))
    return build_system(space, pairs, random_weights(rng, len(pairs), normalized=True))


@TREES
@given(st.integers(2, 64), st.randoms(use_true_random=False))
def test_norm_is_the_edge_sum(points, rng):
    space, parent, weight = random_tree(rng, points)
    support = rng.sample(range(points), rng.randint(1, points))
    element = element_from_coeffs(
        space, {p: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for p in support})
    assert free_norm(space, element).value == edge_sum(weight, subtree_masses(parent, element.coeffs))


@TREES
@given(st.integers(2, 64), st.randoms(use_true_random=False))
def test_decide_is_the_l1_rule_with_the_sign_function(points, rng):
    space, parent, weight = random_tree(rng, points)
    system = tree_family(rng, space, parent)
    mass = subtree_masses(parent, to_point_masses(space, system).coeffs)
    frechet = edge_sum(weight, mass) == system.total_weight and all(m != 0 for m in mass[1:])
    verdict = decide(space, system)
    assert (verdict.kind is VerdictKind.FRECHET) == frechet
    if frechet:
        f = [Fraction(0)] * points
        for p in range(1, points):
            f[p] = f[parent[p]] + (1 if mass[p] > 0 else -1) * weight[p]
        assert list(verdict.norming.values) == f
