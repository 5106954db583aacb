"""Tests for fixture generators and random-space construction."""

import random
from fractions import Fraction

import pytest

from lipfree import (
    InputError,
    VerdictKind,
    build_system,
    decide,
    gen_c0_truncation,
    gen_line,
    gen_random,
    gen_star,
    make_function,
    repair_to_metric,
    segment,
    validate_space,
    verify_norming,
)


class TestGenStar:
    def test_two_satellites(self):
        star = gen_star(2)
        assert star.d(1, 2) == 2
        assert star.d(1, 0) == 1
        assert star.d(2, 0) == 1

    def test_single_satellite(self):
        star = gen_star(1)
        assert len(star) == 2
        assert star.d(0, 1) == 1

    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_valid_with_expected_spread(self, k):
        star = gen_star(k)
        report = validate_space(star.labels, star.dist, star.labels[star.base])
        assert report.ok
        if k >= 2:
            assert star.theta() == 1
            assert star.diameter() == 2

    def test_anchored_systems_are_frechet(self):
        rng = random.Random(600)
        star = gen_star(4)
        for _ in range(5):
            weights = [Fraction(rng.randint(1, 9)) for _ in range(4)]
            total = sum(weights)
            system = build_system(
                star, [(n, 0) for n in range(1, 5)], [w / total for w in weights]
            )
            assert decide(star, system).kind is VerdictKind.FRECHET


class TestGenC0Truncation:
    def test_first_distances(self):
        space = gen_c0_truncation(2)
        assert space.d(1, 2) == Fraction(5, 4)
        assert space.d(2, 0) == Fraction(5, 4)
        assert space.d(1, 0) == 2

    @pytest.mark.parametrize("k", [2, 4, 7])
    def test_valid(self, k):
        space = gen_c0_truncation(k)
        report = validate_space(space.labels, space.dist, "0")
        assert report.ok

    def test_distance_to_base_norms_every_pair(self):
        space = gen_c0_truncation(5)
        f = make_function(space, [space.d(p, 0) for p in space.points()])
        assert f.lip_constant == 1
        system = build_system(space, [(n, 0) for n in range(1, 6)], [1] * 5)
        assert verify_norming(space, system, f)


class TestGenLine:
    def test_three_points(self):
        line = gen_line(3)
        assert line.d(0, 2) == 2
        assert segment(line, 0, 2) == {0, 1, 2}


class TestGenRandom:
    def test_deterministic(self):
        first = gen_random(5, seed=77, profile="generic")
        second = gen_random(5, seed=77, profile="generic")
        assert first == second

    def test_different_seeds_differ(self):
        assert gen_random(5, seed=1) != gen_random(5, seed=2)

    @pytest.mark.parametrize("profile", ["generic", "near-degenerate"])
    def test_always_valid(self, profile):
        for seed in range(30):
            space = gen_random(2 + seed % 5, seed=seed, profile=profile)
            report = validate_space(space.labels, space.dist, "0")
            assert report.ok, (seed, profile, report.violations)

    def test_near_degenerate_has_exact_alignment(self):
        for seed in range(20):
            space = gen_random(5, seed=seed, profile="near-degenerate")
            aligned = any(
                space.d(x, z) + space.d(z, y) == space.d(x, y)
                for x in space.points()
                for y in space.points()
                for z in space.points()
                if len({x, y, z}) == 3
            )
            assert aligned, seed

    def test_unknown_profile_rejected(self):
        with pytest.raises(InputError):
            gen_random(4, seed=0, profile="wild")


class TestRepair:
    def test_idempotent_on_valid_metrics(self):
        for seed in range(10):
            space = gen_random(5, seed=seed)
            rows = [list(row) for row in space.dist]
            assert repair_to_metric(rows) == rows

    def test_fixes_triangle_violations(self):
        raw = [[0, 1, 4], [1, 0, 1], [4, 1, 0]]
        repaired = repair_to_metric(raw)
        assert repaired[0][2] == 2
        report = validate_space(["0", "1", "2"], repaired, "0")
        assert report.ok

    def test_rejects_nonpositive_entries(self):
        with pytest.raises(InputError):
            repair_to_metric([[0, 0], [0, 0]])


@pytest.mark.parametrize("make, message", [
    (lambda: gen_star(0), "star space needs at least one satellite"),
    (lambda: gen_c0_truncation(1), "sup-norm truncation needs at least two sequence points"),
    (lambda: gen_line(1), "line space needs at least two points"),
    (lambda: gen_random(1, seed=0), "random space needs at least two points"),
    (lambda: repair_to_metric([[0, 1], [1]]), "matrix must be square"),
], ids=["star", "c0", "line", "random", "repair-non-square"])
def test_degenerate_size_rejected(make, message):
    with pytest.raises(InputError, match=message):
        make()
