"""Tests for norming-function construction and 1-Lipschitz extensions."""

import random
from fractions import Fraction

import pytest

from lipfree import (
    CertificateMismatchError,
    FiniteMetricSpace,
    InputError,
    PartialFunction,
    build_on_N,
    build_space,
    build_system,
    check_cyclical_monotonicity,
    extend_lower,
    extend_upper,
    gen_c0_truncation,
    gen_star,
    LipschitzFunction,
    make_function,
    verify_norming,
)
from lipfree.norming import recheck_function, recheck_on_N
from _instances import random_space, random_system

TRI = build_space(["0", "a", "b"], [[0, 2, 1], [2, 0, 2], [1, 2, 0]], "0")
A, B = 1, 2


def build_partial(space, pairs):
    verdict = check_cyclical_monotonicity(space, pairs)
    assert verdict.holds
    return build_on_N(space, pairs, verdict.table)


class TestBuildOnN:
    def test_star_two_pairs(self):
        star = gen_star(2)
        partial = build_partial(star, [(1, 0), (2, 0)])
        assert partial.values == {0: 0, 1: 1, 2: 1}

    def test_single_pair(self):
        partial = build_partial(TRI, [(A, 0)])
        assert partial.values == {0: 0, A: 2}

    def test_c0_truncation_matches_distance_to_base(self):
        space = gen_c0_truncation(4)
        partial = build_partial(space, [(n, 0) for n in range(1, 5)])
        assert partial.values[1] == 2
        for n in range(2, 5):
            assert partial.values[n] == 1 + Fraction(1, 2**n)
        assert all(partial.values[p] == space.d(p, 0) for p in partial.domain)

    def test_base_not_in_domain_keeps_anchor(self):
        # line a - 0 - b with the pair (a, b): base point stays out of N
        line = build_space(["0", "a", "b"], [[0, 1, 1], [1, 0, 2], [1, 2, 0]], "0")
        partial = build_partial(line, [(1, 2)])
        assert partial.domain == (1, 2)
        assert partial.values == {2: 0, 1: 2}


class TestExtensions:
    def test_full_domain_is_identity(self):
        partial = build_partial(TRI, [(A, 0), (B, 0)])
        assert partial.domain == (0, A, B)
        upper = extend_upper(TRI, partial)
        lower = extend_lower(TRI, partial)
        for p in TRI.points():
            assert upper.values[p] == partial.values[p]
            assert lower.values[p] == partial.values[p]

    def test_three_point_example(self):
        partial = PartialFunction({0: Fraction(0), A: Fraction(2)})
        upper = extend_upper(TRI, partial)
        lower = extend_lower(TRI, partial)
        assert upper.values[B] == 1
        assert lower.values[B] == 0
        assert upper.lip_constant <= 1
        assert lower.lip_constant <= 1

    def test_lower_below_upper_everywhere(self):
        rng = random.Random(77)
        checked = 0
        while checked < 30:
            space = random_space(rng)
            system = random_system(rng, space)
            verdict = check_cyclical_monotonicity(space, system.pairs)
            if not verdict.holds:
                continue
            checked += 1
            partial = build_on_N(space, system.pairs, verdict.table)
            upper = extend_upper(space, partial)
            lower = extend_lower(space, partial)
            for p in space.points():
                assert lower.values[p] <= upper.values[p]

    def test_sandwiches_every_feasible_extension(self):
        rng = random.Random(78)
        checked = 0
        while checked < 20:
            space = random_space(rng)
            system = random_system(rng, space)
            verdict = check_cyclical_monotonicity(space, system.pairs)
            if not verdict.holds:
                continue
            checked += 1
            partial = build_on_N(space, system.pairs, verdict.table)
            upper = extend_upper(space, partial)
            lower = extend_lower(space, partial)
            # convex mixes of the extremal extensions stay feasible
            lam = Fraction(rng.randint(0, 4), 4)
            mixed = [
                lam * upper.values[p] + (1 - lam) * lower.values[p]
                for p in space.points()
            ]
            fn = make_function(space, mixed)
            assert fn.lip_constant <= 1
            for p in space.points():
                assert lower.values[p] <= fn.values[p] <= upper.values[p]

    def test_non_lipschitz_partial_rejected(self):
        partial = PartialFunction({0: Fraction(0), A: Fraction(5)})
        with pytest.raises(InputError):
            extend_upper(TRI, partial)
        with pytest.raises(InputError):
            extend_lower(TRI, partial)

    @pytest.mark.parametrize("extend", [extend_upper, extend_lower])
    def test_non_lipschitz_partial_names_the_first_pair(self, extend):
        # (0, b) and (a, b) both break f; the mismatch is at b for the upper
        # extension and at 0 for the lower one, and both name (0, b)
        values = {0: Fraction(0), A: Fraction(1), B: Fraction(7, 2)}
        partial = PartialFunction(values)
        with pytest.raises(InputError) as raised:
            extend(TRI, partial)
        assert str(raised.value) == (
            "partial function is not 1-Lipschitz on its domain: |f(0) - f(2)| = 7/2 > d = 1")

    @pytest.mark.parametrize("extend", [extend_upper, extend_lower])
    def test_mismatch_on_n_without_a_breaking_pair_is_internal(self, extend):
        # a space built without validation, with d(0, 0) = 1: g(0) = f(0) +- 1
        # while N = {0} has no pair to name
        one = Fraction(1)
        bent = FiniteMetricSpace(labels=("0", "a"), base=0, dist=((one, one), (one, Fraction(0))))
        partial = PartialFunction({0: Fraction(0)})
        with pytest.raises(CertificateMismatchError, match="differs from f on N"):
            extend(bent, partial)

    def test_four_tightness_inequalities(self):
        rng = random.Random(79)
        checked = 0
        while checked < 25:
            space = random_space(rng)
            system = random_system(rng, space)
            verdict = check_cyclical_monotonicity(space, system.pairs)
            if not verdict.holds:
                continue
            checked += 1
            partial = build_on_N(space, system.pairs, verdict.table)
            f = extend_upper(space, partial).values
            for xi, yi in system.pairs:
                for xj, yj in system.pairs:
                    assert f[xi] - f[yj] <= space.d(xi, yj)
                    if yi != xj:
                        assert f[yi] - f[xj] <= space.d(yi, xj)
                    if xi != xj:
                        assert f[xi] - f[xj] <= space.d(xi, xj)
                    if yi != yj:
                        assert f[yi] - f[yj] <= space.d(yi, yj)


class TestVerifyNorming:
    def test_star_unit_function(self):
        star = gen_star(4)
        f = make_function(star, [0, 1, 1, 1, 1])
        system = build_system(star, [(n, 0) for n in range(1, 5)], [1] * 4)
        assert verify_norming(star, system, f)

    def test_zero_function_fails(self):
        f = make_function(TRI, [0, 0, 0])
        system = build_system(TRI, [(A, 0)], [1])
        assert not verify_norming(TRI, system, f)

    def test_c0_distance_function(self):
        space = gen_c0_truncation(5)
        f = make_function(space, [space.d(p, 0) for p in space.points()])
        system = build_system(space, [(n, 0) for n in range(1, 6)], [1] * 5)
        assert verify_norming(space, system, f)

    @pytest.mark.parametrize("resize", [lambda v: v + (Fraction(0),), lambda v: v[:-1]],
                             ids=["too-long", "too-short"])
    def test_function_of_the_wrong_length_rejected(self, resize):
        star = gen_star(3)
        f = make_function(star, [0, 1, 1, 1])
        system = build_system(star, [(n, 0) for n in range(1, 4)], [1] * 3)
        assert verify_norming(star, system, f)
        with pytest.raises(InputError, match="must assign a value to every point"):
            verify_norming(star, system, f.replace(values=resize(f.values)))

    def test_rejects_expanding_functions(self):
        f = make_function(TRI, [0, 5, 0])
        system = build_system(TRI, [(A, 0)], [1])
        with pytest.raises(InputError):
            verify_norming(TRI, system, f)

    def test_round_trip_with_monotone_families(self):
        rng = random.Random(80)
        checked = 0
        while checked < 30:
            space = random_space(rng)
            system = random_system(rng, space)
            verdict = check_cyclical_monotonicity(space, system.pairs)
            if not verdict.holds:
                continue
            checked += 1
            partial = build_on_N(space, system.pairs, verdict.table)
            for extend in (extend_upper, extend_lower):
                assert verify_norming(space, system, extend(space, partial))


@pytest.mark.parametrize("extend", [extend_upper, extend_lower])
def test_extension_of_an_empty_domain_rejected(extend):
    with pytest.raises(InputError, match="cannot extend a partial function with empty domain"):
        extend(TRI, PartialFunction({}))


@pytest.mark.parametrize("values", [
    [0, 0.1, 1], [0, 1, True], [0, "1/2", 1],
], ids=["float", "bool", "string"])
def test_make_function_takes_exact_values_only(values):
    with pytest.raises(InputError, match="function value: expected an exact rational"):
        make_function(TRI, values)


class TestRechecks:
    """``recheck_function`` and ``recheck_on_N`` raise ``CertificateMismatchError``,
    naming the function, on every certificate they refuse."""

    @pytest.mark.parametrize("values,lip,message", [
        ((0, 1, 1), 1, "must have one value per point"),
        ((0, 1, 1, 1, 0), 1, "must have one value per point"),
        ((0, 1.0, 1, 1), 1, "must have one value per point"),
        ((0, 1, 1, 1), Fraction(1, 2), "constant is wrong"),
        ((0, 2, 1, 1), 2, "constant is wrong"),
    ], ids=["short", "long", "float", "stated-lip", "steep"])
    def test_recheck_function_refuses(self, values, lip, message):
        f = LipschitzFunction(values=values, lip_constant=lip)
        with pytest.raises(CertificateMismatchError, match=f"^dual function {message}"):
            recheck_function(gen_star(3), f, "dual function")

    def test_recheck_function_leaves_the_base_to_its_caller(self):
        recheck_function(gen_star(3), make_function(gen_star(3), [1, 1, 1, 1]), "f")

    @pytest.mark.parametrize("values,message", [
        ({0: 0, 1: 1, 2: 0, 3: 0}, "f on N does not norm every molecule"),
        ({0: 0, 1: 1, 2: 7, 3: 9}, "f on N is not 1-Lipschitz"),
    ], ids=["not-norming", "steep"])
    def test_recheck_on_N_refuses(self, values, message):
        with pytest.raises(CertificateMismatchError, match=message):
            recheck_on_N(gen_star(3), [(1, 0), (3, 2)], values)
        recheck_on_N(gen_star(3), [(1, 0), (3, 2)], {0: 0, 1: 1, 2: -1, 3: 1})


def test_a_function_has_values_and_a_constant_only():
    """Whether f vanishes at the base is read off its values, not stored."""
    f = make_function(TRI, [0, 2, 1])
    assert repr(f) == ("LipschitzFunction(values=(Fraction(0, 1), Fraction(2, 1), "
                       "Fraction(1, 1)), lip_constant=Fraction(1, 1))")
    with pytest.raises(TypeError):
        f.replace(base_pinned=True)
