"""Tests for molecule families, beta matrices, and point-mass expansion."""

import random
from fractions import Fraction

import pytest

from lipfree import (
    InputError,
    MoleculeSystem,
    beta_matrix,
    build_space,
    build_system,
    check_cyclical_monotonicity,
    element_from_coeffs,
    gen_star,
    l1_basis_check,
    to_point_masses,
)
from _instances import random_space, random_system

# 3-point space {0, a, b}: d(a,0) = 2, d(b,0) = 1, d(a,b) = 2
TRI = build_space(["0", "a", "b"], [[0, 2, 1], [2, 0, 2], [1, 2, 0]], "0")
A, B = 1, 2


class TestBuildSystem:
    def test_zero_weight_rejected(self):
        with pytest.raises(InputError):
            build_system(TRI, [(A, 0)], [0])

    def test_negative_weight_rejected(self):
        with pytest.raises(InputError):
            build_system(TRI, [(A, 0)], [Fraction(-1, 2)])

    def test_equal_endpoints_rejected(self):
        with pytest.raises(InputError):
            build_system(TRI, [(A, A)], [1])

    def test_duplicate_pairs_kept(self):
        system = build_system(TRI, [(A, 0), (A, 0)], [1, 1])
        assert len(system) == 2

    def test_normalized_flag(self):
        assert build_system(TRI, [(A, 0)], [1]).normalized
        assert not build_system(TRI, [(A, 0)], [Fraction(1, 2)]).normalized
        two = build_system(TRI, [(A, 0), (0, B)], [Fraction(1, 2), Fraction(1, 2)])
        assert two.normalized


class TestBetaMatrix:
    def test_star_anchored_pairs_vanish(self):
        star = gen_star(3)
        beta = beta_matrix(star, [(1, 0), (2, 0), (3, 0)])
        assert all(x == 0 for row in beta.beta for x in row)

    def test_single_pair(self):
        beta = beta_matrix(TRI, [(A, 0)])
        assert beta.beta == ((Fraction(0),),)

    def test_mixed_orientation_entries(self):
        beta = beta_matrix(TRI, [(A, 0), (0, B)])
        # beta[0][1] = d(a,b) - d(a,0), beta[1][0] = d(0,0) - d(0,b)
        assert beta.beta[0][1] == 0
        assert beta.beta[1][0] == -1

    def test_zero_diagonal_always(self):
        rng = random.Random(5150)
        for _ in range(40):
            space = random_space(rng)
            system = random_system(rng, space)
            beta = beta_matrix(space, system)
            assert all(beta.beta[i][i] == 0 for i in range(beta.size))

    @pytest.mark.parametrize("pair", [(-1, 0), (1, -4), (0, 9), (4, 1)])
    def test_raw_pair_out_of_range_rejected(self, pair):
        # a negative index would wrap to a point counted from the end
        star = gen_star(3)
        for solve in (lambda: beta_matrix(star, [(1, 0), pair]),
                      lambda: check_cyclical_monotonicity(star, [(1, 0), pair]),
                      lambda: l1_basis_check(star, [(1, 0), pair])):
            with pytest.raises(InputError, match="^pair 1: point index out of range$"):
                solve()

    def test_system_built_unchecked_is_checked(self):
        forged = MoleculeSystem(pairs=((1, 0), (0, -1)), weights=(Fraction(1), Fraction(1)))
        with pytest.raises(InputError, match="^pair 1: point index out of range$"):
            beta_matrix(gen_star(3), forged)


class TestToPointMasses:
    def test_single_molecule(self):
        system = build_system(TRI, [(A, 0)], [1])
        assert to_point_masses(TRI, system).coeffs == {A: Fraction(1, 2)}

    def test_cancellation_gives_zero_element(self):
        system = build_system(TRI, [(A, B), (B, A)], [Fraction(1, 2), Fraction(1, 2)])
        assert to_point_masses(TRI, system).coeffs == {}

    def test_two_molecule_expansion(self):
        system = build_system(TRI, [(A, 0), (0, B)], [Fraction(1, 2), Fraction(1, 2)])
        assert to_point_masses(TRI, system).coeffs == {
            A: Fraction(1, 4),
            B: Fraction(-1, 2),
        }

    def test_unit_molecule_has_unit_masses(self):
        rng = random.Random(61)
        for _ in range(30):
            space = random_space(rng)
            x = rng.randrange(len(space))
            y = rng.randrange(len(space))
            if x == y:
                continue
            system = build_system(space, [(x, y)], [space.d(x, y)])
            expected = {}
            if x != space.base:
                expected[x] = Fraction(1)
            if y != space.base:
                expected[y] = Fraction(-1)
            assert to_point_masses(space, system).coeffs == expected

    def test_linear_in_weights(self):
        rng = random.Random(62)
        for _ in range(30):
            space = random_space(rng)
            first = random_system(rng, space)
            second = random_system(rng, space)
            merged = build_system(
                space,
                list(first.pairs) + list(second.pairs),
                list(first.weights) + list(second.weights),
            )
            total = {}
            for part in (first, second):
                for p, c in to_point_masses(space, part).coeffs.items():
                    total[p] = total.get(p, Fraction(0)) + c
            total = {p: c for p, c in total.items() if c != 0}
            assert to_point_masses(space, merged).coeffs == total


@pytest.mark.parametrize("build, message", [
    (lambda: build_system(TRI, [(A, 0), (B, 0)], [1]), "pairs and weights must have equal length"),
    (lambda: element_from_coeffs(TRI, {3: Fraction(1)}), "coefficient index 3 out of range"),
    (lambda: element_from_coeffs(TRI, {-1: Fraction(1)}), "coefficient index -1 out of range"),
], ids=["unequal-lengths", "coefficient-past-end", "coefficient-negative"])
def test_malformed_family_or_element_rejected(build, message):
    with pytest.raises(InputError, match=message):
        build()
