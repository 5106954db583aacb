"""Tests for differentiability verdicts, eps reports, l1 checks, stability."""

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lipfree import (
    CertificateMismatchError,
    DiffVerdict,
    InputError,
    MoleculeSystem,
    NegativeCycleWitness,
    NonUniqueOnN,
    NotAttaining,
    NotAttainingError,
    PartialFunction,
    ResourceLimitError,
    Uncovered,
    VerdictKind,
    beta_matrix,
    brute_norming_uniqueness,
    build_on_N,
    build_space,
    build_system,
    check_cyclical_monotonicity,
    check_gateaux_eps,
    closure,
    coverage_eps_prefix,
    decide,
    dual_vertices,
    extend_lower,
    extend_upper,
    gen_c0_truncation,
    gen_line,
    gen_random,
    gen_star,
    l1_basis_check,
    make_function,
    min_coverage_slack,
    recheck_verdict,
    stability_bound,
    to_point_masses,
    verify_stability,
)
from lipfree import differentiability, potentials
from _instances import random_space, random_system

TRI = build_space(["0", "a", "b"], [[0, 2, 1], [2, 0, 2], [1, 2, 0]], "0")
A, B = 1, 2


def normalized_weights(count, rng=None):
    if rng is None:
        weights = [Fraction(1, 2**n) for n in range(1, count + 1)]
    else:
        weights = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(count)]
    total = sum(weights)
    return [w / total for w in weights]


def pairing(space, system, values):
    """<g, mu> for the element of a family, g given by its values."""
    return sum(w * (values[x] - values[y]) / space.d(x, y)
               for (x, y), w in zip(system.pairs, system.weights))


def star_system(k):
    star = gen_star(k)
    pairs = [(n, 0) for n in range(1, k + 1)]
    return star, build_system(star, pairs, normalized_weights(k))


def c0_system(k):
    space = gen_c0_truncation(k)
    pairs = [(n, 0) for n in range(1, k + 1)]
    return space, build_system(space, pairs, normalized_weights(k))


def uncovered_fixture():
    return TRI, build_system(TRI, [(A, 0)], [1])


def non_unique_fixture():
    # line 0-1-2-3 with the pairs (1,0) and (3,2): attaining but the value
    # at point 2 is free, so the potentials are not pinned
    line = gen_line(4)
    system = build_system(line, [(1, 0), (3, 2)], [Fraction(1, 2)] * 2)
    return line, system


def not_attaining_fixture():
    return TRI, build_system(TRI, [(A, 0), (0, B)], [Fraction(1, 2)] * 2)


class TestDecide:
    def test_star_is_frechet_with_unit_norming(self):
        star, system = star_system(5)
        verdict = decide(star, system)
        assert verdict.kind is VerdictKind.FRECHET
        assert verdict.norming.values[0] == 0
        assert all(verdict.norming.values[p] == 1 for p in range(1, 6))
        assert set(verdict.coverage) == set(star.points())
        recheck_verdict(star, system, verdict)

    def test_uncovered_point(self):
        space, system = uncovered_fixture()
        verdict = decide(space, system)
        assert verdict.kind is VerdictKind.NOT_GATEAUX
        assert verdict.failure == Uncovered(point=B, extension_gap=1)
        table = check_cyclical_monotonicity(space, system.pairs).table
        partial = build_on_N(space, system.pairs, table)
        gap = (
            extend_upper(space, partial).values[B]
            - extend_lower(space, partial).values[B]
        )
        assert gap == 1
        recheck_verdict(space, system, verdict)

    def test_c0_truncation_norming_is_distance_to_base(self):
        space, system = c0_system(4)
        verdict = decide(space, system)
        assert verdict.kind is VerdictKind.FRECHET
        assert all(
            verdict.norming.values[p] == space.d(p, 0) for p in space.points()
        )
        recheck_verdict(space, system, verdict)

    def test_not_attaining_reported_distinctly(self):
        space, system = not_attaining_fixture()
        verdict = decide(space, system)
        assert verdict.kind is VerdictKind.NOT_GATEAUX
        assert isinstance(verdict.failure, NotAttaining)
        recheck_verdict(space, system, verdict)

    def test_non_unique_pair_reported(self):
        space, system = non_unique_fixture()
        verdict = decide(space, system)
        assert verdict.kind is VerdictKind.NOT_GATEAUX
        assert verdict.failure == NonUniqueOnN(pair=(0, 1))
        assert not brute_norming_uniqueness(space, system)
        recheck_verdict(space, system, verdict)

    def test_unnormalized_rejected(self):
        system = build_system(TRI, [(A, 0)], [Fraction(1, 2)])
        with pytest.raises(InputError):
            decide(TRI, system)

    def test_base_outside_pair_points_is_pinned_by_coverage(self):
        # line a - 0 - b: base is interior to the only pair's segment
        line = build_space(["0", "a", "b"], [[0, 1, 1], [1, 0, 2], [1, 2, 0]], "0")
        system = build_system(line, [(1, 2)], [1])
        verdict = decide(line, system)
        assert verdict.kind is VerdictKind.FRECHET
        assert verdict.norming.values == (0, 1, -1)
        recheck_verdict(line, system, verdict)

    def test_deterministic(self):
        star, system = star_system(4)
        assert decide(star, system) == decide(star, system)

    def test_matches_extension_equality_route(self):
        rng = random.Random(500)
        checked = 0
        while checked < 40:
            space = random_space(rng)
            system = random_system(rng, space, normalized=True)
            verdict = check_cyclical_monotonicity(space, system.pairs)
            if not verdict.holds:
                continue
            checked += 1
            table = verdict.table
            n = len(system.pairs)
            rigid = len(table.rigid_pairs) == n * (n - 1) // 2
            partial = build_on_N(space, system.pairs, table)
            upper = extend_upper(space, partial)
            lower = extend_lower(space, partial)
            extensions_agree = upper.values == lower.values
            frechet = decide(space, system).kind is VerdictKind.FRECHET
            assert frechet == (rigid and extensions_agree)


def frechet_candidates(space, system):
    """Frechet verdicts built from every norming dual vertex that has a coverage over N.

    Each point gets the first pair (s, t) of N, s != t, with
    f(t) - f(s) = d(t, s) whose segment contains it.
    """
    N = sorted({p for pair in system.pairs for p in pair})
    element = to_point_masses(space, system)
    d = space.dist
    for vec in dual_vertices(space):
        pairing = sum((c * vec[p] for p, c in element.coeffs.items()), Fraction(0))
        if pairing != system.total_weight:
            continue
        tight = [(s, t) for s in N for t in N if s != t and vec[t] - vec[s] == d[t][s]]
        coverage = {}
        for p in space.points():
            hit = next(((s, t) for s, t in tight if d[s][p] + d[t][p] == d[s][t]), None)
            if hit is None:
                break
            coverage[p] = hit
        else:
            yield DiffVerdict(kind=VerdictKind.FRECHET,
                              norming=make_function(space, vec), coverage=coverage)


class TestFrechetRecheck:
    """A Frechet verdict is re-checked as a proof that f is the only norming function."""

    def test_forged_verdict_on_non_unique_family_rejected(self):
        # line 0-1-2-3 with (1,0) and (3,2): f = position norms both pairs and
        # is tight on (0, 3), whose segment is the whole line, but the gap
        # between the pairs is free
        line, system = non_unique_fixture()
        assert decide(line, system).failure == NonUniqueOnN(pair=(0, 1))
        forged = DiffVerdict(kind=VerdictKind.FRECHET,
                             norming=make_function(line, [0, 1, 2, 3]),
                             coverage={p: (0, 3) for p in line.points()})
        with pytest.raises(CertificateMismatchError, match="not unique on N"):
            recheck_verdict(line, system, forged)

    def test_forged_coverage_pair_outside_n_rejected(self):
        # line 0-1-2 with the single pair (1,0): point 2 lies only on segments
        # that leave N = {0, 1}, where a norming function need not be tight
        line = gen_line(3)
        system = build_system(line, [(1, 0)], [1])
        assert decide(line, system).failure == Uncovered(point=2, extension_gap=2)
        forged = DiffVerdict(kind=VerdictKind.FRECHET,
                             norming=make_function(line, [0, 1, 2]),
                             coverage={0: (0, 1), 1: (0, 1), 2: (0, 2)})
        with pytest.raises(CertificateMismatchError, match="no tight pair of N"):
            recheck_verdict(line, system, forged)

    def test_vertex_candidates_pass_iff_norming_is_unique(self):
        rng = random.Random(504)
        outcomes = {True: 0, False: 0}
        for _ in range(300):
            n = rng.randint(3, 6)
            if rng.random() < 0.5:
                space = gen_line(n)
            else:
                space = gen_random(n, rng.randrange(2**30), "near-degenerate")
            pairs = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 4))]
            system = build_system(space, pairs, [Fraction(1, len(pairs))] * len(pairs))
            unique = brute_norming_uniqueness(space, system)
            for verdict in frechet_candidates(space, system):
                try:
                    recheck_verdict(space, system, verdict)
                    passed = True
                except CertificateMismatchError:
                    passed = False
                assert passed == unique, (space, system, verdict)
                outcomes[passed] += 1
        assert outcomes[True] >= 40 and outcomes[False] >= 5, outcomes


class TestUncoveredRecheck:
    """An uncovered verdict is re-checked from f on N in raw Fractions: f
    norms every pair, is 1-Lipschitz on N and leaves a positive gap at the
    point, equal to the stated one when a gap is stated."""

    def test_decide_states_the_gap(self):
        space, system = uncovered_fixture()
        verdict = decide(space, system)
        assert verdict.failure == Uncovered(point=B, extension_gap=1)
        recheck_verdict(space, system, verdict)

    def test_wrong_stated_gap_rejected(self):
        space, system = uncovered_fixture()
        forged = decide(space, system).replace(failure=Uncovered(B, Fraction(1, 2)))
        with pytest.raises(CertificateMismatchError, match="stated extension gap 1/2 is not 1"):
            recheck_verdict(space, system, forged)

    @pytest.mark.parametrize("gap", [1.0, True], ids=repr)
    def test_inexact_stated_gap_rejected(self, gap):
        space, system = uncovered_fixture()
        forged = decide(space, system).replace(failure=Uncovered(B, gap))
        with pytest.raises(CertificateMismatchError, match="stated extension gap"):
            recheck_verdict(space, system, forged)

    @pytest.mark.parametrize("point", [0, A])
    def test_covered_point_rejected(self, point):
        space, system = uncovered_fixture()
        forged = DiffVerdict(kind=VerdictKind.NOT_GATEAUX, failure=Uncovered(point))
        with pytest.raises(CertificateMismatchError, match="actually covered"):
            recheck_verdict(space, system, forged)

    def test_covered_point_off_the_pairs_rejected(self):
        # line 0-1-2 with the pair (2, 0): point 1 lies on its tight segment
        line = gen_line(3)
        system = build_system(line, [(2, 0)], [1])
        assert decide(line, system).kind is VerdictKind.FRECHET
        forged = DiffVerdict(kind=VerdictKind.NOT_GATEAUX, failure=Uncovered(1))
        with pytest.raises(CertificateMismatchError, match="point 1 is actually covered"):
            recheck_verdict(line, system, forged)

    def test_verdict_without_a_gap_accepted(self):
        space, system = uncovered_fixture()
        recheck_verdict(space, system, DiffVerdict(kind=VerdictKind.NOT_GATEAUX,
                                                   failure=Uncovered(B)))

    def test_reads_no_coverage_slacks(self, monkeypatch):
        def unread(*args, **kwargs):
            raise AssertionError("the uncovered re-check shares decide's slacks")

        monkeypatch.setattr(differentiability, "_function_slacks", unread)
        monkeypatch.setattr(differentiability, "min_coverage_slack", unread)
        space, system = uncovered_fixture()
        verdict = DiffVerdict(kind=VerdictKind.NOT_GATEAUX, failure=Uncovered(B, Fraction(1)))
        recheck_verdict(space, system, verdict)


class TestForgedVerdicts:
    """Each branch of ``recheck_verdict`` rejects a verdict forged in one field."""

    @pytest.mark.parametrize("forge, message", [
        (lambda star, v: v.replace(norming=None), "missing certificates"),
        (lambda star, v: v.replace(coverage=None), "missing certificates"),
        (lambda star, v: v.replace(norming=make_function(star, [x + 1 for x in v.norming.values])),
         "must vanish at base"),
        (lambda star, v: v.replace(norming=v.norming.replace(lip_constant=Fraction(1, 2))),
         "constant is wrong"),
        (lambda star, v: v.replace(coverage={p: st for p, st in v.coverage.items() if p != 2}),
         "must mention every point"),
        (lambda star, v: v.replace(norming=v.norming.replace(
            values=v.norming.values + (Fraction(0),))), "one value per point"),
        (lambda star, v: v.replace(norming=v.norming.replace(values=v.norming.values[:-1])),
         "one value per point"),
        (lambda star, v: v.replace(coverage={**v.coverage, 0: (1,)}), "pair of ints"),
        (lambda star, v: v.replace(coverage={**v.coverage, 0: (1, 0, 2)}), "pair of ints"),
        (lambda star, v: v.replace(coverage={**v.coverage, 0: list(v.coverage[0])}),
         "pair of ints"),
        (lambda star, v: v.replace(coverage={**v.coverage, 0: (Fraction(1), 0)}),
         "pair of ints"),
        (lambda star, v: v.replace(norming=v.norming.replace(
            values=(0.0,) + v.norming.values[1:])), "each an int or a Fraction"),
        (lambda star, v: v.replace(norming=v.norming.replace(
            values=(0, True) + v.norming.values[2:])), "each an int or a Fraction"),
        (lambda star, v: v.replace(coverage={True if p == 1 else p: st
                                             for p, st in v.coverage.items()}),
         "pair of ints"),
    ], ids=["no-norming", "no-coverage", "off-base", "wrong-constant", "point-missing",
            "norming-too-long", "norming-too-short", "coverage-single", "coverage-triple",
            "coverage-list", "coverage-fraction", "float-norming-value", "bool-norming-value",
            "bool-coverage-point"])
    def test_forged_frechet_field_rejected(self, forge, message):
        star, system = star_system(3)
        verdict = decide(star, system)
        recheck_verdict(star, system, verdict)
        with pytest.raises(CertificateMismatchError, match=message):
            recheck_verdict(star, system, forge(star, verdict))

    @pytest.mark.parametrize("failure", [Uncovered(2), Uncovered(2, Fraction(2)),
                                         NonUniqueOnN((0, 1))], ids=repr)
    def test_frechet_verdict_with_a_failure_rejected(self, failure):
        star, system = star_system(3)
        forged = decide(star, system).replace(failure=failure)
        with pytest.raises(CertificateMismatchError, match="Frechet verdict carries a failure"):
            recheck_verdict(star, system, forged)

    @pytest.mark.parametrize("fields", [("norming",), ("coverage",), ("norming", "coverage")],
                             ids="+".join)
    def test_failed_verdict_with_frechet_certificates_rejected(self, fields):
        # the single pair (1, 0) leaves point 2 of the 3-star uncovered; the
        # certificates are those of the whole star family, which is Frechet
        star, family = star_system(3)
        frechet = decide(star, family)
        system = build_system(star, [(1, 0)], [1])
        verdict = decide(star, system)
        recheck_verdict(star, system, verdict)
        forged = verdict.replace(**{field: getattr(frechet, field) for field in fields})
        with pytest.raises(CertificateMismatchError, match="carries Frechet certificates"):
            recheck_verdict(star, system, forged)

    def test_point_off_its_segment_rejected(self):
        # f = (0, 1, 0) norms the pair (1, 0) and is tight on it, but point 2
        # of the star is not on the segment [0, 1]
        star = gen_star(2)
        system = build_system(star, [(1, 0)], [1])
        forged = DiffVerdict(kind=VerdictKind.FRECHET, norming=make_function(star, [0, 1, 0]),
                             coverage={p: (0, 1) for p in star.points()})
        with pytest.raises(CertificateMismatchError, match="point 2 not on its segment"):
            recheck_verdict(star, system, forged)

    def test_verdict_without_a_failure_rejected(self):
        space, system = uncovered_fixture()
        with pytest.raises(CertificateMismatchError, match="carries no failure object"):
            recheck_verdict(space, system, DiffVerdict(kind=VerdictKind.NOT_GATEAUX))

    def test_non_unique_on_a_negative_cycle_rejected(self):
        space, system = not_attaining_fixture()
        forged = DiffVerdict(kind=VerdictKind.NOT_GATEAUX, failure=NonUniqueOnN((0, 1)))
        with pytest.raises(CertificateMismatchError, match="claimed on a negative cycle"):
            recheck_verdict(space, system, forged)

    def test_non_unique_on_a_rigid_pair_rejected(self):
        star, system = star_system(3)
        assert decide(star, system).kind is VerdictKind.FRECHET
        forged = DiffVerdict(kind=VerdictKind.NOT_GATEAUX, failure=NonUniqueOnN((0, 2)))
        with pytest.raises(CertificateMismatchError, match=r"pair \(0, 2\) is actually rigid"):
            recheck_verdict(star, system, forged)

    @pytest.mark.parametrize("failure", [
        Uncovered(-1), Uncovered(-2), Uncovered(4), Uncovered(9), Uncovered(True),
        Uncovered(Fraction(2)), Uncovered("2"),
        NonUniqueOnN((0, 7)), NonUniqueOnN((0, -1)), NonUniqueOnN((0, 0)),
        NonUniqueOnN((False, 0)), NonUniqueOnN((0,)), NonUniqueOnN((0, 1, 2)),
        NonUniqueOnN([0, 1]),
    ], ids=repr)
    def test_index_outside_the_family_rejected_before_solving(self, failure, monkeypatch):
        # the family (1, 0) on the 3-star leaves point 2 uncovered; -1 and -2
        # would wrap to the points 2 and 1
        star = gen_star(3)
        system = build_system(star, [(1, 0)], [1])
        verdict = decide(star, system)
        assert verdict.failure == Uncovered(2, 2)
        recheck_verdict(star, system, verdict)

        def solve(beta):
            raise AssertionError("solved before the index was checked")

        monkeypatch.setattr(differentiability, "closure", solve)
        forged = DiffVerdict(kind=VerdictKind.NOT_GATEAUX, failure=failure)
        with pytest.raises(CertificateMismatchError, match=r"distinct ints in range\("):
            recheck_verdict(star, system, forged)

    def test_non_unique_pair_in_either_order(self):
        space, system = non_unique_fixture()
        for pair in [(0, 1), (1, 0)]:
            recheck_verdict(space, system, DiffVerdict(
                kind=VerdictKind.NOT_GATEAUX, failure=NonUniqueOnN(pair)))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.randoms(use_true_random=True))
def test_non_unique_recheck_accepts_exactly_the_loose_pairs(rng):
    """Tight arcs prove non-uniqueness at the pairs the closure finds loose,
    on every attaining prefix of a family: loose pairs are rare on whole ones."""
    space = random_space(rng, max_points=9)
    pairs = random_system(rng, space).pairs
    for m in range(2, len(pairs) + 1):
        system = MoleculeSystem(pairs=pairs[:m], weights=(Fraction(1, m),) * m)
        table = closure(beta_matrix(space, system.pairs))
        if isinstance(table, NegativeCycleWitness):
            continue
        for j, k in ((j, k) for j in range(m) for k in range(m) if j != k):
            forged = DiffVerdict(kind=VerdictKind.NOT_GATEAUX, failure=NonUniqueOnN((j, k)))
            if table.B[j][k] + table.B[k][j] > 0:
                recheck_verdict(space, system, forged)
            else:
                with pytest.raises(CertificateMismatchError, match="is actually rigid"):
                    recheck_verdict(space, system, forged)


class TestGateauxEps:
    @pytest.mark.parametrize("eps", [Fraction(1), Fraction(1, 2), Fraction(1, 4)])
    def test_frechet_inputs_pass_every_eps(self, eps):
        star, system = star_system(4)
        report = check_gateaux_eps(star, system, eps)
        assert report.satisfied

    def test_uncovered_point_fails_at_small_eps(self):
        space, system = uncovered_fixture()
        report = check_gateaux_eps(space, system, Fraction(1, 2))
        assert report.cond_i == ()
        assert B in report.cond_ii
        s, t, slack = report.cond_ii[B]
        assert slack == 1

    def test_uncovered_point_passes_at_large_eps(self):
        space, system = uncovered_fixture()
        report = check_gateaux_eps(space, system, Fraction(2))
        assert report.satisfied

    def test_non_rigid_pair_lands_in_cond_i(self):
        space, system = non_unique_fixture()
        report = check_gateaux_eps(space, system, Fraction(1, 2))
        assert (0, 1) in report.cond_i

    def test_not_attaining_raises(self):
        space, system = not_attaining_fixture()
        with pytest.raises(NotAttainingError):
            check_gateaux_eps(space, system, Fraction(1, 2))

    def test_bad_eps_rejected(self):
        star, system = star_system(2)
        with pytest.raises(InputError):
            check_gateaux_eps(star, system, Fraction(0))

    def test_half_min_slack_traps_uncovered_point(self):
        rng = random.Random(501)
        found = 0
        while found < 15:
            space = random_space(rng)
            system = random_system(rng, space, normalized=True)
            verdict = decide(space, system) if check_cyclical_monotonicity(
                space, system.pairs
            ).holds else None
            if verdict is None or not isinstance(verdict.failure, Uncovered):
                continue
            found += 1
            point = verdict.failure.point
            slack = min_coverage_slack(space, system, point)
            assert slack > 0
            report = check_gateaux_eps(space, system, slack / 2)
            assert point in report.cond_ii

    def test_tie_of_least_slack_goes_to_the_least_pair(self):
        # (1, 2) and (2, 1) both have slack 3 at point 0: the report names
        # the least (s, t), whatever order the slack list runs in
        space = build_space(["0", "1", "2"], [[0, 2, 2], [2, 0, 1], [2, 1, 0]], "0")
        system = build_system(space, [(1, 2)], [1])
        assert check_gateaux_eps(space, system, Fraction(1)).cond_ii[0] == (1, 2, 3)


class TestCoveragePrefix:
    def test_star_needs_every_pair(self):
        star, system = star_system(5)
        assert coverage_eps_prefix(star, system, Fraction(1, 2)) == 5

    def test_c0_prefix_is_one(self):
        space, system = c0_system(6)
        assert coverage_eps_prefix(space, system, Fraction(1)) == 1

    def test_giant_eps_needs_one_pair(self):
        star, system = star_system(3)
        eps = 2 * star.diameter() + 1
        assert coverage_eps_prefix(star, system, eps) == 1

    def test_absent_when_uncoverable(self):
        space, system = uncovered_fixture()
        assert coverage_eps_prefix(space, system, Fraction(1, 2)) is None

    def test_not_attaining_raises(self):
        space, system = not_attaining_fixture()
        with pytest.raises(NotAttainingError):
            coverage_eps_prefix(space, system, Fraction(1))


class TestL1BasisCheck:
    def test_star_family_is_isometric(self):
        star = gen_star(8)
        verdict = l1_basis_check(star, [(n, 0) for n in range(1, 9)])
        assert verdict.isometric

    def test_collinear_family_fails(self):
        line = gen_line(3)
        verdict = l1_basis_check(line, [(1, 0), (2, 0)])
        assert not verdict.isometric
        assert verdict.orientation == (False, True)
        assert verdict.witness.cycle == (0, 1)
        assert verdict.witness.sum == -2

    def test_single_pair_isometric(self):
        verdict = l1_basis_check(TRI, [(A, 0)])
        assert verdict.isometric

    def test_cap_enforced(self):
        star = gen_star(25)
        pairs = [(n, 0) for n in range(1, 22)]
        with pytest.raises(ResourceLimitError):
            l1_basis_check(star, pairs)

    @pytest.mark.parametrize("cap", [0, -1])
    @pytest.mark.parametrize("pairs", [[], [(1, 0), (2, 0)]], ids=["no-pairs", "two-pairs"])
    def test_cap_below_one_is_input_error(self, cap, pairs):
        with pytest.raises(InputError, match="max_pairs must be positive"):
            l1_basis_check(gen_star(2), pairs, max_pairs=cap)

    @pytest.mark.parametrize("k,short,rank", [(6, None, None), (6, (1, 2), 16), (6, (1, 4), 4)])
    def test_one_closure_per_orientation_tried(self, monkeypatch, k, short, rank):
        """The walk solves each orientation it reaches with one ``closure``
        call, in lexicographic order: 2**(k-1) calls on an isometric star and
        (rank of the first failure) + 1 on a failing one."""
        calls = []

        def counting_closure(beta, *args):
            calls.append(beta)
            return closure(beta, *args)

        monkeypatch.setattr(differentiability, "closure", counting_closure)
        dist = [[0 if i == j else (1 if 0 in (i, j) else 2) for j in range(k + 1)]
                for i in range(k + 1)]
        if short is not None:
            a, b = short
            dist[a][b] = dist[b][a] = Fraction(3, 2)
        space = build_space([str(p) for p in range(k + 1)], dist, "0")
        verdict = l1_basis_check(space, [(p, 0) for p in range(1, k + 1)])
        if rank is None:
            assert verdict.isometric
            assert len(calls) == 2 ** (k - 1)
            return
        assert not verdict.isometric
        assert int("".join("1" if f else "0" for f in verdict.orientation), 2) == rank
        assert len(calls) == rank + 1

    def test_invariant_under_global_flip_and_permutation(self):
        rng = random.Random(502)
        for _ in range(15):
            space = random_space(rng, max_points=5)
            system = random_system(rng, space, max_pairs=4)
            pairs = list(system.pairs)
            base_verdict = l1_basis_check(space, pairs).isometric
            flipped = [(y, x) for x, y in pairs]
            assert l1_basis_check(space, flipped).isometric == base_verdict
            shuffled = pairs[:]
            rng.shuffle(shuffled)
            assert l1_basis_check(space, shuffled).isometric == base_verdict


class TestFloydWarshallOnRead:
    """``closure`` decides with Bellman-Ford alone; Floyd-Warshall runs once
    per table, and only for a caller that reads B, alphas or rigid pairs."""

    @pytest.fixture
    def counts(self, monkeypatch):
        calls = {"closure": 0, "floyd_warshall": 0}

        def counting(name, inner):
            def wrapper(*args):
                calls[name] += 1
                return inner(*args)
            return wrapper

        monkeypatch.setattr(differentiability, "closure", counting("closure", closure))
        monkeypatch.setattr(potentials, "floyd_warshall",
                            counting("floyd_warshall", potentials.floyd_warshall))
        return calls

    def test_l1_check_on_an_isometric_star_closes_nothing(self, counts):
        k = 8
        verdict = l1_basis_check(gen_star(k), [(n, 0) for n in range(1, k + 1)])
        assert verdict.isometric
        assert counts == {"closure": 2 ** (k - 1), "floyd_warshall": 0}

    def test_monotonicity_holds_closes_nothing(self, counts):
        star, system = star_system(8)
        assert check_cyclical_monotonicity(star, system.pairs).holds
        assert counts["floyd_warshall"] == 0

    def test_decide_closes_once(self, counts):
        star, system = star_system(8)
        assert decide(star, system).kind is VerdictKind.FRECHET
        assert counts == {"closure": 1, "floyd_warshall": 1}


class TestStability:
    def test_star_three_constant(self):
        star, system = star_system(3)
        bound = stability_bound(star, system)
        assert bound.theta == 1
        assert bound.D == 2
        assert bound.n == 3
        assert bound.K == 90

    def test_exact_norming_function_passes(self):
        star, system = star_system(3)
        f = decide(star, system).norming
        assert verify_stability(star, system, f, Fraction(1, 16))

    def test_far_function_fails_hypothesis_vacuously(self):
        star, system = star_system(3)
        zero = make_function(star, [0] * len(star))
        assert verify_stability(star, system, zero, Fraction(1, 1024))

    def test_perturbations_within_bound(self):
        rng = random.Random(503)
        star, system = star_system(3)
        f = decide(star, system).norming
        for _ in range(100):
            eps = Fraction(1, 2 ** rng.randint(4, 10))
            delta = eps * min(system.weights)
            # convex mix with a random feasible function keeps the pairing high
            h = make_function(
                star,
                [Fraction(0)]
                + [Fraction(rng.randint(-1, 1)) for _ in range(len(star) - 1)],
            )
            assert h.lip_constant <= 1
            s = delta / 4
            g = make_function(
                star,
                [(1 - s) * f.values[p] + s * h.values[p] for p in star.points()],
            )
            assert pairing(star, system, g.values) > 1 - delta
            assert verify_stability(star, system, g, eps)

    def test_unequal_weights_along_edges_to_dual_vertices(self):
        """g = f + t (v - f) for dual vertices v, the worst direction, with t
        chosen so that <g, mu> exceeds 1 - eps * min(w) by a random margin."""
        rng = random.Random(504)
        checked = 0
        for space in (gen_star(2), gen_star(3), gen_c0_truncation(3), gen_line(3)):
            k = len(space) - 1
            raw = [Fraction(rng.randint(1, 100)) for _ in range(k)]
            system = build_system(space, [(p, 0) for p in range(1, k + 1)],
                                  [w / sum(raw) for w in raw])
            verdict = decide(space, system)
            assert verdict.kind is VerdictKind.FRECHET
            f = verdict.norming.values
            for v in dual_vertices(space):
                deficit = 1 - pairing(space, system, v)
                if deficit == 0:
                    continue
                for eps in (Fraction(1, 16), Fraction(1, 1000), Fraction(3, 7)):
                    margin = eps * min(system.weights)
                    t = min(1, Fraction(rng.randint(1, 99), 100) * margin / deficit)
                    g = make_function(space, [a + t * (b - a) for a, b in zip(f, v)])
                    assert pairing(space, system, g.values) > 1 - margin
                    assert verify_stability(space, system, g, eps)
                    checked += 1
        assert checked >= 60

    def test_unequal_weights_reproducer(self):
        """<g, mu> = 999/1000 lies above 1 - eps / min(w) = 99/100 but below
        1 - eps * min(w), and the gap 1/10 exceeds K * eps = 1/250: no
        counterexample to the bound, which the old hypothesis reported."""
        star = gen_star(2)
        system = build_system(star, [(1, 0), (2, 0)], [Fraction(1, 100), Fraction(99, 100)])
        g = make_function(star, [0, Fraction(9, 10), 1])
        eps = Fraction(1, 10000)
        assert pairing(star, system, g.values) == Fraction(999, 1000)
        assert stability_bound(star, system).K * eps == Fraction(1, 250)
        assert verify_stability(star, system, g, eps)

    @pytest.mark.parametrize("resize", [lambda v: v + (Fraction(0),), lambda v: v[:-1]],
                             ids=["too-long", "too-short"])
    def test_candidate_of_the_wrong_length_rejected(self, resize):
        star, system = star_system(3)
        f = decide(star, system).norming
        g = f.replace(values=resize(f.values))
        with pytest.raises(InputError, match="must assign a value to every point"):
            differentiability.stability_holds(star, system, g, Fraction(1, 16))

    @pytest.mark.parametrize("resize", [lambda v: v + (Fraction(100),), lambda v: v[:-1]],
                             ids=["too-long", "too-short"])
    def test_norming_function_of_the_wrong_length_rejected(self, resize, monkeypatch):
        # read unchecked, a short f raised IndexError and a long one passed;
        # f is the family's own, so a wrong length is a fault of decide
        star = gen_star(3)
        system = build_system(star, [(p, 0) for p in range(1, 4)], [Fraction(1, 3)] * 3)
        verdict = decide(star, system)
        g = verdict.norming
        forged = verdict.replace(norming=g.replace(values=resize(g.values)))
        monkeypatch.setattr(differentiability, "decide", lambda space, system: forged)
        with pytest.raises(CertificateMismatchError, match="must have one value per point"):
            differentiability.stability_holds(star, system, g, Fraction(1, 16))

    def test_non_frechet_rejected(self):
        space, system = uncovered_fixture()
        f = make_function(space, [0, 2, 1])
        with pytest.raises(InputError):
            verify_stability(space, system, f, Fraction(1, 16))


def recheck_with_f_on_n(monkeypatch, values):
    """Re-check an ``Uncovered(0)`` claim on the attaining family (1, 0), (2, 3)
    of the 3-star, with ``build_on_N`` replaced to answer ``values``."""
    star = gen_star(3)
    system = build_system(star, [(1, 0), (2, 3)], [Fraction(1, 2)] * 2)
    forged = PartialFunction({p: Fraction(v) for p, v in values.items()})
    monkeypatch.setattr(differentiability, "build_on_N", lambda space, pairs, table: forged)
    recheck_verdict(star, system, DiffVerdict(kind=VerdictKind.NOT_GATEAUX, failure=Uncovered(0)))


@pytest.mark.parametrize("call, error, message", [
    (lambda mp: decide(build_space(["0"], [[0]], "0"), MoleculeSystem(pairs=(), weights=())),
     InputError, "differentiability requires a space with >= 2 points"),
    (lambda mp: stability_bound(gen_star(2), MoleculeSystem(pairs=(), weights=())),
     InputError, "stability bound requires a nonempty system"),
    (lambda mp: recheck_with_f_on_n(mp, {0: 0, 1: 0, 2: 0, 3: 0}),
     CertificateMismatchError, "f on N does not norm every molecule"),
    (lambda mp: recheck_with_f_on_n(mp, {0: 0, 1: 1, 2: 10, 3: 8}),
     CertificateMismatchError, "f on N is not 1-Lipschitz"),
], ids=["decide-one-point", "stability-empty", "recheck-f-not-norming", "recheck-f-not-lipschitz"])
def test_unreached_error_branch(call, error, message, monkeypatch):
    with pytest.raises(error, match=message):
        call(monkeypatch)
