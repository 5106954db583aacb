"""No record field or parameter restates another.

A value that the other fields or the inputs determine is computed where it
is read: ``PartialFunction.domain``, ``MonotonicityVerdict.holds``,
``L1Verdict.isometric``, ``StabilityBound.K`` and ``ValidationReport.ok``
are properties, ``validate_space`` lists at most ``metric.MAX_VIOLATIONS``
violations, and ``stability_holds`` works out the family's bound itself
and returns it with its answer. An
uncovered point's gap is stated on the ``Uncovered`` failure it certifies.
Each old keyword raises ``TypeError``, and each property reads what the old
field held.
"""

from fractions import Fraction

import pytest

from lipfree import (
    DiffVerdict,
    L1Verdict,
    MonotonicityVerdict,
    PartialFunction,
    StabilityBound,
    Uncovered,
    ValidationReport,
    VerdictKind,
    build_on_N,
    build_space,
    build_system,
    check_cyclical_monotonicity,
    closure,
    beta_matrix,
    decide,
    gen_line,
    gen_star,
    l1_basis_check,
    make_function,
    stability_bound,
    validate_space,
)
from lipfree import metric
from lipfree.differentiability import stability_holds

TRI = build_space(["0", "a", "b"], [[0, 2, 1], [2, 0, 2], [1, 2, 0]], "0")
STAR = gen_star(3)
STAR_FAMILY = build_system(STAR, [(1, 0), (2, 0), (3, 0)], [Fraction(1, 3)] * 3)


def test_fields_are_the_settable_values():
    assert DiffVerdict.__match_args__ == ("kind", "norming", "failure", "coverage")
    assert Uncovered.__match_args__ == ("point", "extension_gap")
    assert PartialFunction.__match_args__ == ("values",)
    assert MonotonicityVerdict.__match_args__ == ("witness", "table")
    assert L1Verdict.__match_args__ == ("orientation", "witness")
    assert StabilityBound.__match_args__ == ("theta", "D", "n")
    assert ValidationReport.__match_args__ == ("violations", "theta", "diameter")


@pytest.mark.parametrize("build", [
    lambda: DiffVerdict(kind=VerdictKind.NOT_GATEAUX, failure=Uncovered(2),
                        extension_gap=Fraction(1)),
    lambda: decide(STAR, STAR_FAMILY).replace(extension_gap=Fraction(7)),
    lambda: PartialFunction(domain=(0,), values={0: Fraction(0)}),
    lambda: MonotonicityVerdict(holds=True),
    lambda: L1Verdict(isometric=True),
    lambda: StabilityBound(theta=Fraction(1), D=Fraction(2), n=3, K=Fraction(90)),
    lambda: ValidationReport(ok=True, violations=(), theta=None, diameter=Fraction(0)),
    lambda: validate_space(["0", "1"], [[0, 1], [1, 0]], "0", max_violations=10),
    lambda: stability_holds(STAR, STAR_FAMILY, decide(STAR, STAR_FAMILY).norming,
                            stability_bound(STAR, STAR_FAMILY), make_function(STAR, [0] * 4),
                            Fraction(1, 16)),
    lambda: stability_holds(STAR, STAR_FAMILY, decide(STAR, STAR_FAMILY).norming,
                            make_function(STAR, [0] * 4), Fraction(1, 16),
                            bound=stability_bound(STAR, STAR_FAMILY)),
], ids=["DiffVerdict-extension_gap", "DiffVerdict-replace-extension_gap",
        "PartialFunction-domain", "MonotonicityVerdict-holds", "L1Verdict-isometric",
        "StabilityBound-K", "ValidationReport-ok", "validate_space-max_violations",
        "stability_holds-bound", "stability_holds-bound-keyword"])
def test_removed_keyword_raises_type_error(build):
    with pytest.raises(TypeError):
        build()


def test_the_gap_rides_on_the_uncovered_failure():
    verdict = decide(TRI, build_system(TRI, [(1, 0)], [1]))
    assert verdict.failure == Uncovered(point=2, extension_gap=1)
    assert Uncovered(2).extension_gap is None


def test_partial_domain_is_its_sorted_points():
    pairs = [(3, 0), (1, 0)]
    partial = build_on_N(STAR, pairs, closure(beta_matrix(STAR, pairs)))
    assert list(partial.values) == [0, 3, 1]
    assert partial.domain == (0, 1, 3)
    assert PartialFunction({3: Fraction(0), 1: Fraction(1)}).domain == (1, 3)
    assert PartialFunction({}).domain == ()


def test_holds_and_isometric_read_the_witness():
    attaining = check_cyclical_monotonicity(TRI, [(1, 0)])
    failing = check_cyclical_monotonicity(TRI, [(1, 0), (0, 2)])
    assert (attaining.holds, attaining.witness) == (True, None)
    assert attaining.table is not None
    assert (failing.holds, failing.table) == (False, None)
    assert failing.witness is not None
    assert l1_basis_check(STAR, STAR_FAMILY.pairs).isometric
    collinear = l1_basis_check(gen_line(3), [(1, 0), (2, 0)])
    assert not collinear.isometric and collinear.orientation == (False, True)
    assert L1Verdict() == l1_basis_check(STAR, ())


def test_validation_ok_is_no_violation(monkeypatch):
    assert validate_space(["0", "1"], [[0, 1], [1, 0]], "0").ok
    bad = validate_space(["0", "1"], [[0, 1], [2, 0]], "0")
    assert not bad.ok and bad.violations == (("asymmetry", (0, 1)),)
    n = 12
    dist = [[0 if i == j else -1 for j in range(n)] for i in range(n)]
    report = validate_space([str(i) for i in range(n)], dist, "0")
    assert len(report.violations) == metric.MAX_VIOLATIONS == 100
    monkeypatch.setattr(metric, "MAX_VIOLATIONS", 10**6)
    assert len(validate_space([str(i) for i in range(n)], dist, "0").violations) > 100


@pytest.mark.parametrize("f_values, g_values, holds", [
    ((0, 1, 1, 1), (0, 1, 1, 1 - Fraction(1, 10**4)), True),
    ((0, 1, 1, 1), (0, 1, 1, Fraction(1, 2)), True),
    ((0, 1, 1, 0), (0, 1, 1, 1), False),
], ids=["within-bound", "hypothesis-fails", "outside-bound"])
def test_stability_holds_returns_the_family_bound(f_values, g_values, holds):
    """The one bound that ``stability_holds`` works out is the family's, on
    the vacuous path too, so a caller reports it without building another.
    The last f is no norming function, so its distance to g exceeds K * eps."""
    assert decide(STAR, STAR_FAMILY).norming.values == (0, 1, 1, 1)
    f, g = make_function(STAR, f_values), make_function(STAR, g_values)
    assert stability_holds(STAR, STAR_FAMILY, f, g, Fraction(1, 1000)) == (
        holds, stability_bound(STAR, STAR_FAMILY))
