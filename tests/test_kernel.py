"""Property tests for the loops that run on common-denominator integers.

The triangle scan, the min-cost flow, the Floyd-Warshall kernel and its
callers (the beta closure and the metric repair) scale their rational inputs
to integers over one common denominator. Each is compared here with a
plain-Fraction reference on random matrices whose denominators are mixed and
go up to 10**6, with negative entries where the input allows them. The flow
is also checked to be the transport plan itself: every leg runs from a supply
point to a demand point. The closure's rigid pairs are checked against
mutual reachability over the arcs tight under its own alphas, and against
the reference closure whichever of them is read first. A principal
submatrix taken with ``BetaMatrix.restrict`` keeps its parent's denominator
and must close exactly as the same submatrix built afresh.

Each space has one integer form, ``space.scaled``. Validation, the
Lipschitz constant (which cross-multiplies the raw Fractions instead), both
extensions and the coverage slacks are compared with Fraction references on
values and eps whose denominators do not divide the space's. Corrupting one
entry of ``space.scaled`` must never yield a wrong norm or a wrong Frechet
verdict that passes its re-check, and the re-checks must not read it.

The flow's Dijkstra search relaxes forward arcs only from the source and
from points entered by a reverse arc, and stops at the first deficit point
it settles. It is compared with a search that relaxes every arc and stops at
the same pop, on metric integer costs full of ties, with feasible and
perturbed potentials: the same distances, predecessors and sink, and the
same ``CertificateMismatchError`` exactly when the reference raises one. The
whole flow is compared the same way on stars, lines and spaces with exact
segments: the same plan and the same dual, and the same value as a flow
whose searches settle every point. On the dense 40-point golden element the
searches must pop fewer heap entries than n per search.
"""

import heapq
import json
import random
import re
from fractions import Fraction
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from lipfree import (
    BetaMatrix,
    CertificateMismatchError,
    FiniteMetricSpace,
    GateauxEpsReport,
    InputError,
    MoleculeSystem,
    NegativeCycleWitness,
    NonUniqueOnN,
    NotAttaining,
    NotAttainingError,
    PartialFunction,
    Uncovered,
    ValidationReport,
    VerdictKind,
    brute_dual_norm,
    build_on_N,
    build_space,
    beta_matrix,
    check_gateaux_eps,
    closure,
    coverage_eps_prefix,
    decide,
    element_from_coeffs,
    extend_lower,
    extend_upper,
    free_norm,
    gen_line,
    gen_random,
    gen_star,
    l1_basis_check,
    make_function,
    min_coverage_slack,
    recheck_certificate,
    recheck_verdict,
    recheck_witness,
    stability_bound,
    validate_space,
    verify_stability,
)
from lipfree import metric, transport
from lipfree.generators import repair_to_metric
from lipfree.metric import floyd_warshall, scale_to_integers
from lipfree.norming import lipschitz_constant, recheck_on_N
from lipfree.potentials import PotentialTable, tight_rigid_pairs
from lipfree.serialization import function_to_doc, load_element_doc, load_space_doc
from lipfree.transport import _balances, _dijkstra

INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"

SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

rationals = st.builds(
    Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**6)
)
positives = st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**6))


# ---------------------------------------------------------------- references


def reference_negative_cycle(beta):
    """Bellman-Ford on Fractions from a virtual source, as a simple cycle."""
    n = len(beta)
    dist = [Fraction(0)] * n
    pred = [None] * n
    touched = None
    for _ in range(n):
        touched = None
        for u in range(n):
            for v in range(n):
                if u != v and dist[u] + beta[u][v] < dist[v]:
                    dist[v] = dist[u] + beta[u][v]
                    pred[v] = u
                    touched = v
        if touched is None:
            return None
    x = touched
    for _ in range(n):
        x = pred[x]
    seen = [x]
    y = pred[x]
    while y != x:
        seen.append(y)
        y = pred[y]
    seen.reverse()
    k = seen.index(min(seen))
    return tuple(seen[k:] + seen[:k])


def reference_closure(beta):
    """Floyd-Warshall on Fractions."""
    n = len(beta)
    B = [list(row) for row in beta]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if B[i][k] + B[k][j] < B[i][j]:
                    B[i][j] = B[i][k] + B[k][j]
    return tuple(tuple(row) for row in B)


def reference_tight_pairs(beta, alphas):
    """Index pairs j < k joined both ways by tight arcs, by depth-first search."""
    n = len(beta)

    def reach(start):
        seen, stack = {start}, [start]
        while stack:
            k = stack.pop()
            for j in range(n):
                if j not in seen and alphas[k] == alphas[j] + beta[k][j]:
                    seen.add(j)
                    stack.append(j)
        return seen

    sets = [reach(k) for k in range(n)]
    return frozenset(
        (j, k) for j in range(n) for k in range(j + 1, n) if k in sets[j] and j in sets[k]
    )


def reference_triangles(m):
    n = len(m)
    return [
        ("triangle", (i, j, k))
        for i in range(n)
        for k in range(i + 1, n)
        for j in range(n)
        if j not in (i, k) and m[i][k] > m[i][j] + m[j][k]
    ]


# ---------------------------------------------------------------- strategies


@st.composite
def beta_matrices(draw):
    """Zero-diagonal rational matrices, about half of them free of negative cycles.

    The cycle-free half is beta[j][k] = p[k] - p[j] + slack with slack >= 0,
    so every cycle sums to its slacks; a zero slack makes pairs rigid.
    """
    n = draw(st.integers(1, 8))
    if draw(st.booleans()):
        p = draw(st.lists(rationals, min_size=n, max_size=n))
        slack = st.one_of(st.just(Fraction(0)), rationals.map(abs))
        return [
            [Fraction(0) if j == k else p[k] - p[j] + draw(slack) for k in range(n)]
            for j in range(n)
        ]
    return [
        [Fraction(0) if j == k else draw(rationals) for k in range(n)]
        for j in range(n)
    ]


@st.composite
def raw_matrices(draw):
    """Square rational matrices of either sign, symmetric or not, some with a bad diagonal."""
    n = draw(st.integers(1, 7))
    m = [[draw(rationals) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        for i in range(n):
            for j in range(i):
                m[i][j] = m[j][i]
    for i in range(n):
        m[i][i] = draw(st.sampled_from([Fraction(0)] * 4 + [Fraction(-1, 3), Fraction(5, 7)]))
    return m


@st.composite
def spaces(draw, min_points, max_points, segments=False):
    """A metric with distances in [1, 2].

    Any matrix of distances in [1, 2] satisfies the triangle inequality, so
    the denominators can be drawn freely. With ``segments`` about half the
    distances are exactly 1 or 2, so many points lie on exact segments
    d(s, t) = d(s, w) + d(w, t), where shortest-path ties occur.
    """
    n = draw(st.integers(min_points, max_points))
    dist = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            q = draw(st.integers(1, 10**6))
            values = st.integers(0, q)
            if segments:
                values = st.one_of(st.sampled_from([0, q]), values)
            dist[i][j] = dist[j][i] = 1 + Fraction(draw(values), q)
    labels = [str(i) for i in range(n)]
    return build_space(labels, dist, "0")


@st.composite
def spaces_with_elements(draw, max_points, segments=False):
    """A space drawn by ``spaces`` and an element with mixed coefficients."""
    space = draw(spaces(2, max_points, segments))
    n = len(space)
    support = draw(st.sets(st.integers(1, n - 1), min_size=1))
    coeffs = {p: draw(rationals.filter(bool)) for p in sorted(support)}
    return space, element_from_coeffs(space, coeffs)


@st.composite
def spaces_with_pairs(draw):
    """A space of 3-9 points and 1-6 pairs, some through the base, some
    repeating or reversing an earlier pair."""
    space = draw(spaces(3, 9, segments=draw(st.booleans())))
    n = len(space)
    pairs = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["any", "base", "repeat", "reverse"] if pairs else ["any", "base"]))
        if kind == "repeat":
            pairs.append(draw(st.sampled_from(pairs)))
        elif kind == "reverse":
            x, y = draw(st.sampled_from(pairs))
            pairs.append((y, x))
        else:
            x = draw(st.integers(1, n - 1))
            y = 0 if kind == "base" else draw(st.integers(0, n - 1).filter(lambda y: y != x))
            pairs.append(draw(st.sampled_from([(x, y), (y, x)])))
    return space, pairs


@st.composite
def betas_with_index(draw):
    """A beta drawn by ``beta_matrices`` and distinct indices into it, in any order."""
    beta = draw(beta_matrices())
    index = draw(st.permutations(range(len(beta))).flatmap(
        lambda order: st.integers(1, len(order)).map(lambda m: order[:m])))
    return beta, index


def eager_table(beta):
    """B and alphas converted from the integer closure over beta's own denominator."""
    den, rows = scale_to_integers(beta)
    floyd_warshall(rows)
    B = tuple(tuple(Fraction(x, den) for x in row) for row in rows)
    return B, tuple(row[0] for row in B)


def reference_l1(space, pairs):
    """The orientation walk with beta rebuilt from the oriented pairs each time."""
    for flips in product((False, True), repeat=len(pairs) - 1):
        orientation = (False,) + flips
        oriented = [(y, x) if flip else (x, y) for (x, y), flip in zip(pairs, orientation)]
        result = closure(beta_matrix(space, oriented))
        if isinstance(result, NegativeCycleWitness):
            return orientation, result
    return None, None


# ---------------------------------------------------------------- properties


def test_scale_to_integers():
    den, rows = scale_to_integers([[Fraction(1, 6), Fraction(-3, 4)], [Fraction(2), Fraction(0)]])
    assert den == 12
    assert rows == [[2, -9], [24, 0]]


@SETTINGS
@given(beta_matrices())
def test_closure_matches_fraction_reference(beta):
    result = closure(BetaMatrix(beta=beta))
    cycle = reference_negative_cycle(beta)
    if cycle is not None:
        assert isinstance(result, NegativeCycleWitness)
        assert result.cycle == cycle
        assert result.sum == sum(
            beta[cycle[i]][cycle[(i + 1) % len(cycle)]] for i in range(len(cycle))
        )
        return
    B = reference_closure(beta)
    n = len(beta)
    assert result.B == B
    assert result.alphas == tuple(B[j][0] for j in range(n))
    assert result.rigid_pairs == frozenset(
        (j, k) for j in range(n) for k in range(j + 1, n) if B[j][k] + B[k][j] == 0
    )


@SETTINGS
@given(beta_matrices())
def test_floyd_warshall_matches_fraction_reference(beta):
    assume(reference_negative_cycle(beta) is None)
    den, rows = scale_to_integers(beta)
    assert floyd_warshall(rows) is None
    B = reference_closure(beta)
    assert tuple(tuple(Fraction(x, den) for x in row) for row in rows) == B


@SETTINGS
@given(beta_matrices())
def test_rigid_pairs_are_mutual_tight_reachability(beta):
    result = closure(BetaMatrix(beta=beta))
    assume(not isinstance(result, NegativeCycleWitness))
    tight = tight_rigid_pairs(result.beta, result.alphas)
    assert tight == reference_tight_pairs(beta, result.alphas) == result.rigid_pairs


@SETTINGS
@given(
    st.integers(1, 7).flatmap(
        lambda n: st.lists(st.lists(positives, min_size=n, max_size=n), min_size=n, max_size=n)
    )
)
def test_repair_to_metric_is_the_closure_of_the_symmetrised_matrix(raw):
    n = len(raw)
    sym = [
        [Fraction(0) if i == j else min(raw[i][j], raw[j][i]) for j in range(n)]
        for i in range(n)
    ]
    assert repair_to_metric(raw) == [list(row) for row in reference_closure(sym)]


@SETTINGS
@given(raw_matrices())
def test_triangle_scan_matches_fraction_reference(m):
    labels = [str(i) for i in range(len(m))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metric, "MAX_VIOLATIONS", 10**6)
        report = validate_space(labels, m, "0")
    triangles = [v for v in report.violations if v[0] == "triangle"]
    assert triangles == sorted(reference_triangles(m), key=lambda v: v[1])


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spaces_with_elements(max_points=40))
def test_free_norm_certificate_rechecks(case):
    space, element = case
    recheck_certificate(space, element, free_norm(space, element))


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spaces_with_elements(max_points=40, segments=True))
def test_free_norm_plan_runs_from_supply_to_demand(case):
    space, element = case
    cert = free_norm(space, element)
    balance = _balances(space, element)
    legs = [(s, t) for s, t, _ in cert.plan]
    assert all(balance[s] > 0 > balance[t] for s, t in legs)
    assert all(a < b for a, b in zip(legs, legs[1:]))
    assert cert.dual.lip_constant == lipschitz_constant(space, cert.dual.values)


@SETTINGS
@given(spaces_with_elements(max_points=6))
def test_free_norm_matches_vertex_sweep(case):
    space, element = case
    assert free_norm(space, element).value == brute_dual_norm(space, element)


def test_negative_reduced_cost_is_a_certificate_mismatch():
    cost = [[0, 1], [1, 0]]
    with pytest.raises(CertificateMismatchError):
        _dijkstra(cost, [{}, {}], [0, -5], 0, [1, -1])


@SETTINGS
@given(spaces_with_pairs())
def test_l1_walk_matches_rebuilt_beta(case):
    space, pairs = case
    verdict = l1_basis_check(space, pairs)
    orientation, witness = reference_l1(space, pairs)
    assert verdict.isometric == (orientation is None)
    assert verdict.orientation == orientation
    if witness is not None:
        assert verdict.witness.cycle == witness.cycle
        assert verdict.witness.sum == witness.sum


@SETTINGS
@given(betas_with_index())
def test_restrict_is_the_submatrix_built_afresh(case):
    beta, index = case
    parent = BetaMatrix(beta=beta)
    sub = [[beta[j][k] for k in index] for j in index]
    restricted, fresh = parent.restrict(index), BetaMatrix(beta=sub)
    result, expected = closure(restricted), closure(fresh)
    # the Fraction rows of a restricted matrix are cut when first read, and
    # closure reads them only for a witness's sum
    assert ("beta" in vars(restricted)) == isinstance(result, NegativeCycleWitness)
    assert restricted == fresh
    assert (hash(restricted), repr(restricted)) == (hash(fresh), repr(fresh))
    assert restricted.scaled[0] == parent.scaled[0]
    assert [[Fraction(x, parent.scaled[0]) for x in row] for row in restricted.scaled[1]] == sub
    assert result == expected
    if isinstance(result, NegativeCycleWitness):
        assert (result.cycle, result.sum) == (expected.cycle, expected.sum)
    else:
        assert (result.B, result.alphas) == (expected.B, expected.alphas) == eager_table(sub)
        assert (result.rigid_pairs, result.globally_unique) == (
            expected.rigid_pairs, expected.globally_unique)


@SETTINGS
@given(beta_matrices())
def test_tables_of_one_beta_are_equal_at_any_denominator(beta):
    # an extra index whose arcs cost 1/1000003, a prime no drawn denominator has
    n = len(beta)
    far = Fraction(1, 1000003)
    wide = [row + [far] for row in beta] + [[far] * n + [Fraction(0)]]
    near, scaled = closure(BetaMatrix(beta=beta)), closure(BetaMatrix(beta=wide).restrict(range(n)))
    assume(isinstance(near, PotentialTable))
    assert near._closed[0] != scaled._closed[0]
    assert near == scaled
    assert hash(near) == hash(scaled)
    assert (near.B, near.alphas) == (scaled.B, scaled.alphas) == eager_table(beta)
    # a table not made by closure computes its integer closure from beta
    rebuilt = scaled.replace()
    assert "_closed" not in vars(rebuilt)
    assert (rebuilt.B, rebuilt.alphas) == eager_table(beta)
    assert "B=" not in repr(rebuilt) and "alphas=" not in repr(rebuilt)


@SETTINGS
@given(beta_matrices(), st.booleans())
def test_rigid_pairs_on_first_read_match_the_reference(beta, rigid_first):
    made = closure(BetaMatrix(beta=beta))
    assume(isinstance(made, PotentialTable))
    B = reference_closure(beta)
    n = len(beta)
    rigid = frozenset(
        (j, k) for j in range(n) for k in range(j + 1, n) if B[j][k] + B[k][j] == 0
    )
    # the table closure made and one rebuilt from beta, each read in either order
    for table in (made, made.replace()):
        assert "_closed" not in vars(table)
        if rigid_first:
            rigid_pairs, unique, closed = table.rigid_pairs, table.globally_unique, table.B
        else:
            closed, rigid_pairs, unique = table.B, table.rigid_pairs, table.globally_unique
        assert (closed, rigid_pairs, unique) == (B, rigid, len(rigid) == n * (n - 1) // 2)
        assert "rigid_pairs=" not in repr(table) and "globally_unique=" not in repr(table)


# ------------------------------------------- one integer form per space


eps_values = st.builds(
    Fraction, st.integers(1, 200), st.sampled_from([7, 11, 13, 61, 97, 101, 1009])
)
unit_rationals = st.builds(Fraction, st.integers(0, 10**6), st.integers(10**6, 2 * 10**6))


def reference_validation(m):
    """Violations (labels distinct), theta and diameter, in Fraction."""
    n = len(m)
    violations = [("nonzero-diag", (i,)) for i in range(n) if m[i][i] != 0]
    for i, j in product(range(n), repeat=2):
        if i != j and m[i][j] <= 0:
            violations.append(("negative" if m[i][j] < 0 else "zero-offdiag", (i, j)))
    violations += [("asymmetry", (i, j)) for i in range(n) for j in range(i + 1, n)
                   if m[i][j] != m[j][i]]
    violations += reference_triangles(m)
    positives = [m[i][j] for i, j in product(range(n), repeat=2) if i != j and m[i][j] > 0]
    theta = min(positives) if positives else None
    return sorted(violations, key=lambda v: (v[1], v[0])), theta, max(map(max, m))


def reference_lipschitz(space, values):
    n = len(space)
    return max((abs(values[p] - values[q]) / space.d(p, q)
                for p in range(n) for q in range(p + 1, n)), default=Fraction(0))


def reference_extension(space, partial, upper):
    """The extension's values, or the first pair breaking 1-Lipschitz on N."""
    dom, f = partial.domain, partial.values
    for a, p in enumerate(dom):
        for q in dom[a + 1:]:
            if abs(f[p] - f[q]) > space.d(p, q):
                return (p, q, abs(f[p] - f[q])), None
    if upper:
        return None, [min(f[p] + space.d(p, x) for p in dom) for x in space.points()]
    return None, [max(f[p] - space.d(p, x) for p in dom) for x in space.points()]


def reference_coverage(space, system, eps):
    """check_gateaux_eps, every point's min_coverage_slack and
    coverage_eps_prefix in Fraction; None when the family does not attain."""
    table = closure(beta_matrix(space, system.pairs))
    if isinstance(table, NegativeCycleWitness):
        return None
    partial = build_on_N(space, system.pairs, table)
    d, f, N = space.dist, partial.values, partial.domain
    slacks = [(s, t, d[t][s] - (f[t] - f[s])) for s in N for t in N if s != t]
    n = len(system.pairs)
    cond_i = tuple((j, k) for j in range(n) for k in range(j + 1, n)
                   if table.B[j][k] + table.B[k][j] >= eps)
    cond_ii, least = {}, []
    for p in space.points():
        excess = [(max(d[s][p] + d[t][p] - d[s][t], fun), s, t) for s, t, fun in slacks]
        least.append(min(e for e, _, _ in excess))
        if least[-1] >= eps:
            slack, s, t = min(excess)
            cond_ii[p] = (s, t, slack)
    first = {}
    for upto, pair in enumerate(system.pairs, 1):
        for x in pair:
            first.setdefault(x, upto)
    usable = sorted((max(first[s], first[t]), s, t) for s, t, fun in slacks if fun < eps)
    needed = 0
    for p in space.points():
        ups = [u for u, s, t in usable if d[s][p] + d[t][p] < d[s][t] + eps]
        needed = None if needed is None or not ups else max(needed, ups[0])
    return GateauxEpsReport(cond_i=cond_i, cond_ii=cond_ii), least, needed


@st.composite
def partial_functions(draw):
    """A partial function with denominators of its own: t * d(a, .) + c,
    1-Lipschitz for t in [0, 1], or free values that mostly are not."""
    space = draw(spaces(2, 9, segments=draw(st.booleans())))
    domain = sorted(draw(st.sets(st.integers(0, len(space) - 1), min_size=1)))
    if draw(st.booleans()):
        a, t, c = draw(st.integers(0, len(space) - 1)), draw(unit_rationals), draw(rationals)
        values = {p: t * space.d(a, p) + c for p in domain}
    else:
        values = {p: draw(rationals) / 10**5 for p in domain}
    return space, PartialFunction(values)


@SETTINGS
@given(raw_matrices(), st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=3))
def test_validate_space_matches_fraction_reference(m, zeros):
    n = len(m)
    for i, j in zeros:
        m[i % n][j % n] = Fraction(0)
    violations, theta, diameter = reference_validation(m)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metric, "MAX_VIOLATIONS", 10**6)
        report = validate_space([str(i) for i in range(n)], m, "0")
    assert report == ValidationReport(violations=tuple(violations), theta=theta, diameter=diameter)
    assert report.ok == (not violations)


@SETTINGS
@given(spaces(1, 9, segments=True))
def test_space_scaled_is_the_one_integer_form(space):
    den, rows = space.scaled
    assert "scaled" in vars(space)  # read by build_space's validation
    assert (den, [list(row) for row in rows]) == scale_to_integers(space.dist)
    fresh = FiniteMetricSpace(labels=space.labels, base=space.base, dist=space.dist)
    assert "scaled" not in vars(fresh)
    assert fresh == space and hash(fresh) == hash(space) and repr(fresh) == repr(space)
    assert fresh.scaled == space.scaled
    assert "scaled" not in repr(fresh) and "scaled" not in vars(space.replace())
    if len(space) > 1:
        off = [space.d(p, q) for p in space.points() for q in space.points() if p != q]
        assert (space.theta(), space.diameter()) == (min(off), max(off))


@SETTINGS
@given(spaces(1, 9, segments=True), st.data())
def test_lipschitz_constant_matches_fraction_reference(space, data):
    values = [data.draw(st.one_of(rationals, st.sampled_from([0, 1, Fraction(1, 3)])))
              for _ in space.points()]
    assert lipschitz_constant(space, values) == reference_lipschitz(space, values)


@SETTINGS
@given(partial_functions(), st.booleans())
def test_extensions_match_fraction_reference(case, upper):
    space, partial = case
    extend = extend_upper if upper else extend_lower
    broken, values = reference_extension(space, partial, upper)
    if broken is not None:
        p, q, gap = broken
        with pytest.raises(InputError, match=re.escape(f"|f({p}) - f({q})| = {gap} >")):
            extend(space, partial)
        return
    out = extend(space, partial)
    assert out.values == tuple(values)
    assert out.lip_constant == reference_lipschitz(space, values) <= 1
    assert function_to_doc(space, out)["base_pinned"] == (values[space.base] == 0)


@SETTINGS
@given(spaces_with_pairs(), eps_values)
def test_coverage_slacks_match_fraction_reference(case, eps):
    space, pairs = case
    system = MoleculeSystem(pairs=tuple(pairs), weights=(Fraction(1),) * len(pairs))
    expected = reference_coverage(space, system, eps)
    if expected is None:
        with pytest.raises(NotAttainingError):
            check_gateaux_eps(space, system, eps)
        return
    report, least, prefix = expected
    assert check_gateaux_eps(space, system, eps) == report
    assert [min_coverage_slack(space, system, p) for p in space.points()] == least
    assert coverage_eps_prefix(space, system, eps) == prefix


@st.composite
def anchored_pairs(draw):
    """A space drawn by ``spaces`` and pairs (p, base) for a nonempty set of
    points p: beta is zero, so the family attains and is rigid, and whether
    a point is covered depends on the segments alone."""
    space = draw(spaces(3, 9, segments=draw(st.booleans())))
    points = draw(st.sets(st.integers(1, len(space) - 1), min_size=1))
    return space, [(p, 0) for p in sorted(points)]


@SETTINGS
@given(st.one_of(spaces_with_pairs(), anchored_pairs()))
def test_extension_gap_is_the_gap_between_the_extensions(case):
    """An uncovered verdict at p states upper(p) - lower(p) > 0 for the two
    extremal extensions of f on N; no other failure has a gap to state."""
    space, pairs = case
    system = MoleculeSystem(pairs=tuple(pairs), weights=(Fraction(1, len(pairs)),) * len(pairs))
    verdict = decide(space, system)
    recheck_verdict(space, system, verdict)
    if not isinstance(verdict.failure, Uncovered):
        return
    p = verdict.failure.point
    partial = build_on_N(space, system.pairs, closure(beta_matrix(space, system.pairs)))
    upper, lower = extend_upper(space, partial), extend_lower(space, partial)
    assert verdict.failure.extension_gap == upper.values[p] - lower.values[p] > 0


def corrupted(space, rng):
    """The space with one symmetric entry of its integer form changed."""
    den, rows = space.scaled
    i, j = rng.sample(range(len(space)), 2)
    bad = [list(row) for row in rows]
    bad[i][j] = bad[j][i] = rng.choice([0, 1, -rows[i][j], rows[i][j] // 2,
                                        rows[i][j] - 1, rows[i][j] + 1, 3 * rows[i][j]])
    out = space.replace()
    object.__setattr__(out, "scaled", (den, tuple(map(tuple, bad))))
    return out


def test_corrupted_scaled_form_never_passes_a_wrong_norm():
    """Re-checks read raw Fractions only, so a norm from a corrupted integer
    form either fails its re-check or is the true norm."""
    rng = random.Random(611)
    outcomes = {"mismatch": 0, "agree": 0}
    for trial in range(40):
        space = gen_random(rng.randint(4, 10), trial)
        coeffs = {p: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for p in space.points()}
        element = element_from_coeffs(space, coeffs)
        truth = free_norm(space, element).value
        try:
            value = free_norm(corrupted(space, rng), element).value
        except CertificateMismatchError:
            outcomes["mismatch"] += 1
            continue
        assert value == truth
        outcomes["agree"] += 1
    assert min(outcomes.values()) > 0, outcomes


def test_corrupted_scaled_form_never_passes_a_wrong_frechet_verdict():
    """A Frechet verdict from a corrupted integer form fails
    ``recheck_verdict`` or has the true norming function."""
    rng = random.Random(612)
    outcomes = {"mismatch": 0, "agree": 0}
    for trial in range(40):
        space = gen_random(rng.randint(4, 10), trial)
        # most points anchored, so that most families are Frechet
        pairs = [(p, 0) for p in range(1, len(space)) if rng.random() < 0.9] or [(1, 0)]
        weights = [Fraction(rng.randint(1, 9)) for _ in pairs]
        system = MoleculeSystem(pairs=tuple(pairs), weights=tuple(w / sum(weights) for w in weights))
        truth = decide(space, system)
        bad = corrupted(space, rng)
        try:
            verdict = decide(bad, system)
            if verdict.kind is not VerdictKind.FRECHET:
                continue
            recheck_verdict(bad, system, verdict)
        except CertificateMismatchError:
            outcomes["mismatch"] += 1
            continue
        assert (verdict.kind, verdict.norming) == (truth.kind, truth.norming)
        outcomes["agree"] += 1
    assert min(outcomes.values()) > 0, outcomes


def test_corrupted_scaled_form_never_prints_a_wrong_stability_bound():
    """``lipfree stability`` prints ``stability_bound`` once ``recheck_verdict``
    has passed the Frechet verdict, so the bound must not rest on the
    integer form: on a corrupted one it is the true bound."""
    rng = random.Random(7)
    outcomes = {"mismatch": 0, "agree": 0}
    for trial in range(200):
        space = gen_random(rng.randint(3, 9), trial)
        pairs = tuple((p, 0) for p in range(1, len(space)))
        system = MoleculeSystem(pairs=pairs, weights=(Fraction(1, len(pairs)),) * len(pairs))
        bad = corrupted(space, rng)
        try:
            verdict = decide(bad, system)
            if verdict.kind is not VerdictKind.FRECHET:
                continue
            recheck_verdict(bad, system, verdict)
        except CertificateMismatchError:
            outcomes["mismatch"] += 1
            continue
        assert stability_bound(bad, system) == stability_bound(space, system)
        outcomes["agree"] += 1
    assert min(outcomes.values()) > 0, outcomes


def test_corrupted_scaled_form_never_passes_a_wrong_stability_answer():
    """``verify_stability`` on a corrupted integer form raises
    ``CertificateMismatchError`` or answers as on the true form: True or
    False at a Frechet family, an input error at any other. The candidate is
    the true norming function, and eps is small enough that a wrong one
    fails the bound."""
    rng = random.Random(5)
    eps = Fraction(1, 10**6)
    outcomes = {"mismatch": 0, "agree": 0, "refused": 0}
    for trial in range(600):
        space = gen_random(rng.randint(3, 9), trial, rng.choice(["generic", "near-degenerate"]))
        pairs = tuple((p, 0) for p in range(1, len(space)) if rng.random() < 0.7) or ((1, 0),)
        weights = [Fraction(rng.randint(1, 9)) for _ in pairs]
        system = MoleculeSystem(pairs=pairs, weights=tuple(w / sum(weights) for w in weights))
        truth = decide(space, system)
        g = truth.norming or make_function(space, [0] * len(space))
        want = verify_stability(space, system, g, eps) if truth.norming else InputError
        bad = corrupted(space, rng)
        try:
            got = verify_stability(bad, system, g, eps)
        except CertificateMismatchError:
            outcomes["mismatch"] += 1
            continue
        except InputError:
            got = InputError
        assert got == want, trial
        outcomes["agree" if truth.norming else "refused"] += 1
    assert min(outcomes.values()) > 0, outcomes


def test_corrupted_scaled_form_never_passes_a_wrong_uncovered_verdict():
    """An uncovered verdict from a corrupted integer form fails
    ``recheck_verdict`` or names a point that is uncovered, with its true gap;
    the re-check passes on a space whose ``scaled`` cannot be read."""
    rng = random.Random(613)
    outcomes = {"mismatch": 0, "agree": 0}
    for trial in range(60):
        space = gen_random(rng.randint(4, 10), trial)
        # most points anchored, so that some corruptions uncover a covered point
        pairs = [(p, 0) for p in range(1, len(space)) if rng.random() < 0.8] or [(1, 0)]
        system = MoleculeSystem(pairs=tuple(pairs), weights=(Fraction(1, len(pairs)),) * len(pairs))
        bad = corrupted(space, rng)
        try:
            verdict = decide(bad, system)
        except CertificateMismatchError:  # caught by the Frechet branch's extension
            continue
        if not isinstance(verdict.failure, Uncovered):
            continue
        try:
            recheck_verdict(bad, system, verdict)
        except CertificateMismatchError:
            outcomes["mismatch"] += 1
            continue
        p = verdict.failure.point
        assert min_coverage_slack(space, system, p) > 0
        partial = build_on_N(space, system.pairs, closure(beta_matrix(space, system.pairs)))
        gap = extend_upper(space, partial).values[p] - extend_lower(space, partial).values[p]
        assert verdict.failure.extension_gap == gap
        blind = space.replace()
        object.__setattr__(blind, "scaled", None)
        recheck_verdict(blind, system, verdict)
        outcomes["agree"] += 1
    assert min(outcomes.values()) > 0, outcomes


def test_corrupted_scaled_form_never_passes_a_wrong_extension():
    """An extension built on a corrupted integer form fails its re-check on
    the raw Fractions or equals the extension built on the true form."""
    rng = random.Random(19)
    outcomes = {"mismatch": 0, "agree": 0}
    for trial in range(150):
        space = gen_random(rng.randint(4, 10), trial)
        pairs = [(rng.randrange(1, len(space)), 0)]
        partial = build_on_N(space, pairs, closure(beta_matrix(space, pairs)))
        bad = corrupted(space, rng)
        for extend in (extend_upper, extend_lower):
            try:
                got = extend(bad, partial)
            except CertificateMismatchError:
                outcomes["mismatch"] += 1
                continue
            assert got == extend(space, partial)
            outcomes["agree"] += 1
    assert min(outcomes.values()) > 0, outcomes


def test_rechecks_never_read_the_integer_form():
    """``recheck_certificate`` and the Frechet branch of ``recheck_verdict``
    pass on a space whose ``scaled`` cannot be read."""
    space = gen_random(9, 4)
    element = element_from_coeffs(space, {p: Fraction(p, 7) - 1 for p in space.points()})
    cert = free_norm(space, element)
    system = MoleculeSystem(pairs=tuple((p, 0) for p in range(1, 9)), weights=(Fraction(1, 8),) * 8)
    verdict = decide(space, system)
    assert verdict.kind is VerdictKind.FRECHET
    blind = space.replace()
    object.__setattr__(blind, "scaled", None)
    recheck_certificate(blind, element, cert)
    recheck_verdict(blind, system, verdict)


def test_rechecks_of_every_branch_never_read_the_integer_form():
    """``recheck_verdict`` on verdicts of all four kinds, ``recheck_witness``
    and ``recheck_on_N`` pass on a space and a beta whose ``scaled`` cannot
    be read."""
    rng = random.Random(614)
    kinds = {NotAttaining: 0, NonUniqueOnN: 0, Uncovered: 0, None: 0}
    for trial in range(400):
        space = gen_random(rng.randint(3, 9), trial)
        pairs = [(p, 0) if rng.random() < 0.6 else tuple(rng.sample(range(len(space)), 2))
                 for p in rng.sample(range(1, len(space)), rng.randint(1, len(space) - 1))]
        weights = [Fraction(rng.randint(1, 9)) for _ in pairs]
        system = MoleculeSystem(pairs=tuple(pairs), weights=tuple(w / sum(weights) for w in weights))
        verdict = decide(space, system)
        kinds[type(verdict.failure) if verdict.failure else None] += 1
        blind = space.replace()
        object.__setattr__(blind, "scaled", None)
        recheck_verdict(blind, system, verdict)
        beta = beta_matrix(blind, pairs)
        if isinstance(verdict.failure, NotAttaining):
            object.__setattr__(beta, "scaled", None)
            recheck_witness(beta, verdict.failure.witness)
        else:
            recheck_on_N(blind, pairs, build_on_N(space, pairs, closure(beta)).values)
    assert min(kinds.values()) > 0, kinds


# ------------------------------------- forward arcs relaxed only where they help


def reference_dijkstra(cost, flow, pi, source, excess, stop=True):
    """The search relaxing every residual arc of every settled point, over a
    full flow matrix: ``flow[u][v]`` is the flow on u -> v.

    Returns ``(dist, pred, t)``, t the first point popped whose excess is
    negative. With ``stop`` the search ends there, before relaxing t's arcs;
    without, it goes on and settles every point."""
    n = len(cost)
    dist = [None] * n
    pred = [None] * n
    dist[source] = 0
    heap = [(0, source)]
    settled = [False] * n
    t = None
    while heap:
        du, u = heapq.heappop(heap)
        if settled[u]:
            continue
        if excess[u] < 0 and t is None:
            t = u
            if stop:
                return dist, pred, t
        settled[u] = True
        for v in range(n):
            if v == u or settled[v]:
                continue
            rc = (-cost[v][u] if flow[v][u] > 0 else cost[u][v]) - pi[u] + pi[v]
            if rc < 0:
                raise CertificateMismatchError("reduced costs must stay nonnegative")
            if dist[v] is None or du + rc < dist[v]:
                dist[v] = du + rc
                pred[v] = u
                heapq.heappush(heap, (du + rc, v))
    if t is None:
        raise CertificateMismatchError("no deficit point is reachable from the source")
    return dist, pred, t


def reference_flow(space, balance, stop=True):
    """Successive shortest paths with ``reference_dijkstra``: (plan, potentials).

    With ``stop`` each search ends at its sink t, the first deficit point it
    settles, and the potentials drop by min(dist, dist[t]). Without, each
    search settles every point, the sink is the deficit point of least
    (dist, index) and the potentials drop by dist: the flow as it was before
    the searches stopped early, a different optimal plan of the same value.
    """
    n = len(space)
    den, cost = space.scaled
    mass_den, (excess,) = scale_to_integers([balance])
    flow = [[0] * n for _ in range(n)]
    pi = [0] * n
    while any(e > 0 for e in excess):
        s = next(i for i in range(n) if excess[i] > 0)
        dist, pred, t = reference_dijkstra(cost, flow, pi, s, excess, stop)
        if not stop:
            t = min((i for i in range(n) if excess[i] < 0), key=lambda i: (dist[i], i))
        path, v = [], t
        while v != s:
            path.append((pred[v], v))
            v = pred[v]
        amount = min([excess[s], -excess[t]] + [flow[v][u] for u, v in path if flow[v][u]])
        for u, v in path:
            if flow[v][u]:
                flow[v][u] -= amount
            else:
                flow[u][v] += amount
        excess[s] -= amount
        excess[t] += amount
        pi = [p - (min(d, dist[t]) if stop else d) for p, d in zip(pi, dist)]
    plan = tuple((u, v, Fraction(x, mass_den))
                 for u, row in enumerate(flow) for v, x in enumerate(row) if x)
    return plan, [Fraction(p, den) for p in pi]


@st.composite
def residual_graphs(draw):
    """A metric integer cost, a flow with one direction per pair, potentials,
    a source and excesses, positive at the source and in {-1, 0, 1} elsewhere.

    The costs are shortest-path closures of random weights, stars, or
    {2, 4}-valued, the last two full of ties. Feasible potentials are
    1-Lipschitz, a max of shifted distance functions, with flow only on arcs
    they make tight; perturbed ones add small integers to those and let the
    flow run either way, so that some reduced costs turn negative.
    """
    n = draw(st.integers(2, 7))
    kind = draw(st.sampled_from(["closure", "star", "two-four"]))
    if kind == "closure":
        cost = [[0 if i == j else draw(st.integers(1, 9)) for j in range(n)] for i in range(n)]
        cost = [[min(cost[i][j], cost[j][i]) for j in range(n)] for i in range(n)]
        assert floyd_warshall(cost) is None
    elif kind == "star":
        arm = [0] + [draw(st.integers(1, 3)) for _ in range(n - 1)]
        cost = [[0 if i == j else arm[i] + arm[j] for j in range(n)] for i in range(n)]
    else:
        cost = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                cost[i][j] = cost[j][i] = draw(st.sampled_from([2, 4]))
    shifts = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(-8, 8)),
                           min_size=1, max_size=3))
    pi = [max(b - cost[r][v] for r, b in shifts) for v in range(n)]
    feasible = draw(st.booleans())
    if not feasible:
        pi = [p + draw(st.integers(-2, 2)) for p in pi]
    flow = [[0] * n for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            ways = [(u, v), (v, u)]
            if feasible:
                ways = [(a, b) for a, b in ways if pi[a] - pi[b] == cost[a][b]]
            way = draw(st.sampled_from([None] + ways))
            if way is not None:
                flow[way[0]][way[1]] = draw(st.integers(1, 5))
    source = draw(st.integers(0, n - 1))
    excess = [1 if v == source else draw(st.integers(-1, 1)) for v in range(n)]
    return cost, flow, pi, source, excess


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(residual_graphs())
def test_dijkstra_matches_the_full_relaxation(case):
    """The same distances, predecessors and sink as a search that relaxes
    every arc and stops at the same pop, and the same error when it raises."""
    cost, flow, pi, source, excess = case
    n = len(cost)
    into = [{u: flow[u][v] for u in range(n) if flow[u][v]} for v in range(n)]
    try:
        expected = reference_dijkstra(cost, flow, pi, source, excess)
    except CertificateMismatchError as err:
        with pytest.raises(CertificateMismatchError, match=re.escape(str(err))):
            _dijkstra(cost, into, pi, source, excess)
        return
    assert _dijkstra(cost, into, pi, source, excess) == expected


@st.composite
def degenerate_elements(draw):
    """An element on a star, a line or a space of distances in [1, 2] with
    many exact segments, where shortest-path ties decide the flow."""
    space = draw(st.one_of(
        st.integers(1, 9).map(gen_star),
        st.integers(2, 10).map(gen_line),
        spaces(2, 9, segments=True),
    ))
    support = draw(st.sets(st.integers(0, len(space) - 1), min_size=1))
    values = st.one_of(st.sampled_from([Fraction(-1), Fraction(1)]), rationals.filter(bool))
    return space, element_from_coeffs(space, {p: draw(values) for p in sorted(support)})


@SETTINGS
@given(degenerate_elements())
def test_free_norm_is_the_full_relaxation_flow(case):
    """The same plan and dual as the reference flow, and the same value as
    the flow whose searches settle every point."""
    space, element = case
    cert = free_norm(space, element)
    balance = _balances(space, element)
    plan, pi = reference_flow(space, balance)
    assert cert.plan == plan
    assert cert.dual.values == tuple(p - pi[space.base] for p in pi)
    assert cert.value == sum((m * space.d(s, t) for s, t, m in plan), Fraction(0))
    full_plan, _ = reference_flow(space, balance, stop=False)
    assert cert.value == sum((m * space.d(s, t) for s, t, m in full_plan), Fraction(0))


def test_each_search_stops_at_its_sink(monkeypatch):
    """On the dense 40-point golden element the searches pop fewer than n
    heap entries each on the whole; a search that settled every point would
    pop at least n."""
    space = load_space_doc(json.loads((INPUTS / "rand40.json").read_text()))
    element = load_element_doc(space, json.loads((INPUTS / "rand40_elem.json").read_text()))
    searches = pops = 0

    def search(*args):
        nonlocal searches
        searches += 1
        return _dijkstra(*args)

    def pop(heap):
        nonlocal pops
        pops += 1
        return heapq.heappop(heap)

    monkeypatch.setattr(transport, "_dijkstra", search)
    monkeypatch.setattr(transport, "heapq", SimpleNamespace(heappush=heapq.heappush, heappop=pop))
    free_norm(space, element)
    assert 0 < pops < len(space) * searches
