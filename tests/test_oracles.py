"""Tests for the brute-force reference implementations themselves."""

import random
from fractions import Fraction

import pytest

from lipfree import (
    BetaMatrix,
    NegativeCycleWitness,
    ResourceLimitError,
    beta_matrix,
    brute_cycles,
    brute_dual_norm,
    brute_norming_uniqueness,
    build_space,
    build_system,
    closure,
    dual_vertices,
    element_from_coeffs,
    free_norm,
    gen_random,
    gen_star,
    to_point_masses,
)
from _instances import random_space, random_system

TRI = build_space(["0", "a", "b"], [[0, 2, 1], [2, 0, 2], [1, 2, 0]], "0")
A, B = 1, 2


class TestBruteCycles:
    def test_zero_matrix(self):
        beta = BetaMatrix(tuple(tuple(Fraction(0) for _ in range(3)) for _ in range(3)))
        min_sum, cycle = brute_cycles(beta)
        assert min_sum == 0
        assert cycle == ()

    def test_negative_two_cycle(self):
        beta = beta_matrix(TRI, [(A, 0), (0, B)])
        min_sum, cycle = brute_cycles(beta)
        assert min_sum == -1
        assert cycle == (0, 1)

    def test_agrees_with_closure(self):
        rng = random.Random(314)
        for _ in range(80):
            n = rng.randint(1, 6)
            rows = tuple(
                tuple(
                    Fraction(0)
                    if i == j
                    else Fraction(rng.randint(-5, 8), rng.randint(1, 3))
                    for j in range(n)
                )
                for i in range(n)
            )
            beta = BetaMatrix(rows)
            min_sum, _ = brute_cycles(beta)
            result = closure(beta)
            assert (min_sum < 0) == isinstance(result, NegativeCycleWitness)

    def test_size_cap(self):
        beta = BetaMatrix(
            tuple(tuple(Fraction(0) for _ in range(9)) for _ in range(9))
        )
        with pytest.raises(ResourceLimitError):
            brute_cycles(beta)


class TestBruteDualNorm:
    def test_single_molecule(self):
        element = element_from_coeffs(TRI, {A: Fraction(1, 2)})
        assert brute_dual_norm(TRI, element) == 1

    def test_three_point_element(self):
        element = element_from_coeffs(TRI, {A: Fraction(1, 4), B: Fraction(-1, 2)})
        assert brute_dual_norm(TRI, element) == Fraction(3, 4)

    def test_vertices_are_feasible_and_pinned(self):
        for vec in dual_vertices(TRI):
            assert vec[TRI.base] == 0
            for p in TRI.points():
                for q in TRI.points():
                    if p != q:
                        assert abs(vec[p] - vec[q]) <= TRI.d(p, q)

    def test_one_point_space_has_the_zero_vertex_alone(self):
        assert dual_vertices(build_space(["0"], [[0]], "0")) == ((Fraction(0),),)

    def test_matches_flow_solver(self):
        rng = random.Random(315)
        for _ in range(40):
            space = random_space(rng, max_points=5)
            system = random_system(rng, space)
            element = to_point_masses(space, system)
            assert brute_dual_norm(space, element) == free_norm(space, element).value

    def test_size_cap(self):
        space = gen_random(7, seed=1)
        with pytest.raises(ResourceLimitError):
            brute_dual_norm(space, element_from_coeffs(space, {1: Fraction(1)}))


class TestBruteNormingUniqueness:
    def test_uncovered_point_breaks_uniqueness(self):
        system = build_system(TRI, [(A, 0)], [1])
        assert not brute_norming_uniqueness(TRI, system)
        # the two optimal vertices differ exactly at the uncovered point
        element = to_point_masses(TRI, system)
        optimal = [
            vec
            for vec in dual_vertices(TRI)
            if sum((c * vec[p] for p, c in element.coeffs.items()), Fraction(0)) == 1
        ]
        values_at_b = sorted(vec[B] for vec in optimal)
        assert values_at_b == [0, 1]

    def test_star_three_satellites_unique(self):
        star = gen_star(3)
        system = build_system(
            star,
            [(1, 0), (2, 0), (3, 0)],
            [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)],
        )
        assert brute_norming_uniqueness(star, system)

    def test_two_point_molecule_unique(self):
        space = build_space(["0", "a"], [[0, 1], [1, 0]], "0")
        system = build_system(space, [(1, 0)], [1])
        assert brute_norming_uniqueness(space, system)

    def test_non_attaining_family_not_unique(self):
        system = build_system(TRI, [(A, 0), (0, B)], [Fraction(1, 2)] * 2)
        assert not brute_norming_uniqueness(TRI, system)
