"""Tests for space validation, segments, and relaxed segments."""

import random
from decimal import Decimal
from fractions import Fraction

import pytest

from lipfree import (
    InputError,
    InvalidSpaceError,
    build_space,
    segment,
    segment_eps,
    validate_space,
)
import lipfree.metric as metric
from lipfree.metric import as_fraction
from _instances import random_space

LINE3 = (["0", "1", "2"], [[0, 1, 2], [1, 0, 1], [2, 1, 0]], "0")


def star_raw(k):
    labels = [str(i) for i in range(k + 1)]
    dist = [
        [0 if i == j else (1 if 0 in (i, j) else 2) for j in range(k + 1)]
        for i in range(k + 1)
    ]
    return labels, dist, "0"


class TestAsFraction:
    def test_fraction_comes_back_unchanged(self):
        x = Fraction(3, 7)
        assert as_fraction(x) is x

    def test_int_converts(self):
        x = as_fraction(-4)
        assert type(x) is Fraction and x == -4

    @pytest.mark.parametrize("value", [True, 0.5, Decimal("1"), "1"])
    def test_inexact_or_non_rational_rejected(self, value):
        with pytest.raises(InputError, match="where"):
            as_fraction(value, "where")


class TestValidateSpace:
    def test_line_metric_ok(self):
        report = validate_space(*LINE3)
        assert report.ok
        assert report.theta == 1
        assert report.diameter == 2
        assert report.violations == ()

    def test_triangle_violation_reported_with_triple(self):
        report = validate_space(
            ["0", "1", "2"], [[0, 1, 4], [1, 0, 1], [4, 1, 0]], "0"
        )
        assert not report.ok
        assert ("triangle", (0, 1, 2)) in report.violations

    def test_star_space_ok(self):
        report = validate_space(*star_raw(5))
        assert report.ok
        assert report.theta == 1
        assert report.diameter == 2

    def test_pseudometric_rejected(self):
        report = validate_space(["a", "b"], [[0, 0], [0, 0]], "a")
        assert not report.ok
        assert ("zero-offdiag", (0, 1)) in report.violations

    def test_all_kinds_detected(self):
        labels = ["a", "a", "c"]
        dist = [[1, -2, 5], [0, 0, 1], [3, 1, 0]]
        report = validate_space(labels, dist, "a")
        kinds = {kind for kind, _ in report.violations}
        assert "dup-label" in kinds
        assert "nonzero-diag" in kinds
        assert "negative" in kinds
        assert "asymmetry" in kinds
        assert "zero-offdiag" in kinds

    def test_violations_sorted_and_capped(self, monkeypatch):
        n = 8
        labels = [str(i) for i in range(n)]
        dist = [[0 if i == j else -1 for j in range(n)] for i in range(n)]
        monkeypatch.setattr(metric, "MAX_VIOLATIONS", 10)
        report = validate_space(labels, dist, "0")
        assert len(report.violations) == 10
        indices = [idx for _, idx in report.violations]
        assert indices == sorted(indices)

    def test_malformed_inputs_raise(self):
        with pytest.raises(InputError):
            validate_space(["a", "b"], [[0, 1]], "a")
        with pytest.raises(InputError):
            validate_space(["a", "b"], [[0, 1], [1, 0]], "zzz")
        with pytest.raises(InputError):
            validate_space(["a", "b"], [[0, 0.5], [0.5, 0]], "a")

    def test_pure_function(self):
        first = validate_space(*LINE3)
        second = validate_space(*LINE3)
        assert first == second

    def test_theta_diameter_attained(self):
        rng = random.Random(20240)
        for _ in range(25):
            space = random_space(rng)
            entries = [
                space.d(i, j)
                for i in space.points()
                for j in space.points()
                if i != j
            ]
            assert space.theta() == min(entries)
            assert space.diameter() == max(entries)

    def test_build_space_scales_once(self, monkeypatch):
        calls = []
        scale = metric.scale_to_integers
        monkeypatch.setattr(metric, "scale_to_integers",
                            lambda rows: calls.append(rows) or scale(rows))
        space = build_space(*LINE3)
        assert space.theta() == 1 and space.diameter() == 2
        assert len(calls) == 1

    def test_build_space_raises_on_invalid(self):
        with pytest.raises(InvalidSpaceError):
            build_space(["0", "1", "2"], [[0, 1, 4], [1, 0, 1], [4, 1, 0]], "0")


class TestSegments:
    def test_line_interior(self):
        space = build_space(*LINE3)
        assert segment(space, 0, 2) == {0, 1, 2}

    def test_star_base_between_satellites(self):
        space = build_space(*star_raw(5))
        assert segment(space, 1, 2) == {0, 1, 2}

    def test_endpoints_always_present(self):
        rng = random.Random(7)
        for _ in range(25):
            space = random_space(rng)
            s = rng.randrange(len(space))
            t = rng.randrange(len(space))
            if s == t:
                continue
            assert {s, t} <= segment(space, s, t)

    def test_no_interior(self):
        space = build_space(["a", "b", "c"], [[0, 1, 1], [1, 0, 1], [1, 1, 0]], "a")
        assert segment(space, 0, 1) == {0, 1}

    def test_equal_endpoints_rejected(self):
        space = build_space(*LINE3)
        with pytest.raises(InputError):
            segment(space, 1, 1)


class TestSegmentEps:
    def test_huge_eps_covers_everything(self):
        space = build_space(*star_raw(4))
        eps = 2 * space.diameter() + 1
        assert segment_eps(space, 1, 2, eps) == set(space.points())

    def test_line_small_eps(self):
        space = build_space(*LINE3)
        assert segment_eps(space, 0, 1, Fraction(1, 2)) == {0, 1}

    def test_matches_segment_below_minimal_excess(self):
        rng = random.Random(99)
        for _ in range(30):
            space = random_space(rng, min_points=3)
            s, t = 0, 1
            exact = segment(space, s, t)
            excesses = [
                space.d(s, z) + space.d(t, z) - space.d(s, t)
                for z in space.points()
                if z not in exact
            ]
            if not excesses:
                continue
            eps = min(excesses)
            # at the minimal excess the strict inequality still excludes it,
            # while any eps beyond it lets the closest outside point in
            assert segment_eps(space, s, t, eps) == exact
            assert exact < segment_eps(space, s, t, eps + Fraction(1, 1024))

    def test_superset_and_monotone(self):
        rng = random.Random(1234)
        for _ in range(30):
            space = random_space(rng)
            s = rng.randrange(len(space))
            t = rng.randrange(len(space))
            if s == t:
                continue
            small = Fraction(rng.randint(1, 8), rng.randint(1, 8))
            big = small + Fraction(rng.randint(1, 8), rng.randint(1, 8))
            assert segment(space, s, t) <= segment_eps(space, s, t, small)
            assert segment_eps(space, s, t, small) <= segment_eps(space, s, t, big)

    def test_nonpositive_eps_rejected(self):
        space = build_space(*LINE3)
        with pytest.raises(InputError):
            segment_eps(space, 0, 1, Fraction(0))
        with pytest.raises(InputError):
            segment_eps(space, 0, 1, Fraction(-1))


@pytest.mark.parametrize("call, message", [
    (lambda: build_space(["0"], [[0]], "0").theta(), "theta requires a space with at least 2 points"),
    (lambda: build_space([], [], "0"), "space must contain at least one point"),
    (lambda: build_space(["0", "1"], [[0, 1], 1], "0"), "distance matrix must be a list of rows"),
    (lambda: segment_eps(build_space(*LINE3), 1, 1, Fraction(1)), "segment endpoints must be distinct"),
], ids=["theta-one-point", "empty", "dist-not-rows", "segment-eps-one-endpoint"])
def test_degenerate_space_call_rejected(call, message):
    with pytest.raises(InputError, match=message):
        call()
