"""Differentiability of the free-space norm at weighted molecule families.

For a normalized family over a finite space the norm is Frechet
differentiable at the element iff it is Gateaux differentiable, and the
decision reduces to three exact checks: the family attains its norm (no
negative beta cycle), the potentials are unique up to a constant (every pair
rigid), and every point of the space lies on a metric segment [s, t] between
pair points with f(t) - f(s) = d(t, s). Relaxed epsilon variants of the last
two checks and the stability constant of the Frechet property live here too.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import product
from typing import Sequence

from ._record import Record
from .errors import (
    CertificateMismatchError,
    InputError,
    NotAttainingError,
    ResourceLimitError,
    exact,
)
from .metric import FiniteMetricSpace, as_int, common_scale, is_exact, is_index, positive_eps
from .molecules import MoleculeSystem, Pair, _checked_pairs, beta_matrix
from .norming import (
    LipschitzFunction,
    build_on_N,
    extend_upper,
    lipschitz_constant,
    recheck_function,
    recheck_on_N,
)
from .potentials import (
    NegativeCycleWitness,
    closure,
    recheck_witness,
    tight_rigid_pairs,
)


class VerdictKind(Enum):
    FRECHET = "frechet"
    NOT_GATEAUX = "not_gateaux"


class NotAttaining(Record):
    """The element is not on the sphere as a weighted molecule family."""

    witness: NegativeCycleWitness


class NonUniqueOnN(Record):
    """Pair of indices whose potential difference is not pinned."""

    pair: tuple[int, int]


class Uncovered(Record):
    """Point p lying on no tight segment between pair points.

    ``extension_gap``, set by ``decide``, is min over a in N of f(a) + d(a, p)
    minus max over b in N of f(b) - d(b, p): a claim the family determines,
    kept for ``recheck_verdict`` to recompute and compare when it is stated.
    """

    point: int
    extension_gap: Fraction | None = None


Failure = NotAttaining | NonUniqueOnN | Uncovered


class DiffVerdict(Record):
    """A Frechet verdict carries ``norming`` and ``coverage``, any other one a
    ``failure``. ``kind`` restates which, and stays a field because callers
    build verdicts with ``kind=``; ``recheck_verdict`` refuses a verdict
    whose kind contradicts its other fields.
    """

    kind: VerdictKind
    norming: LipschitzFunction | None = None
    failure: Failure | None = None
    coverage: dict[int, tuple[int, int]] | None = None


class GateauxEpsReport(Record):
    """Failures of the epsilon-relaxed differentiability conditions.

    ``cond_i`` lists non-epsilon-rigid index pairs (j, k), j < k, with their
    closure slack B[j][k] + B[k][j] >= eps. ``cond_ii`` maps each point not
    epsilon-covered to its best candidate (s, t, slack); the slack is the
    larger of the segment excess and the function slack, and is >= eps.
    """

    cond_i: tuple[tuple[int, int], ...]
    cond_ii: dict[int, tuple[int, int, Fraction]]

    @property
    def satisfied(self) -> bool:
        return not self.cond_i and not self.cond_ii


class StabilityBound(Record):
    theta: Fraction
    D: Fraction
    n: int

    @property
    def K(self) -> Fraction:
        return (Fraction(4) / self.theta + 1) * self.n * self.n * self.D


class L1Verdict(Record):
    """The first orientation that is not cyclically monotone, with its
    negative-cycle ``witness``; both ``None`` when the family is isometric."""

    orientation: tuple[bool, ...] | None = None
    witness: NegativeCycleWitness | None = None

    @property
    def isometric(self) -> bool:
        return self.witness is None


def _function_slacks(space, partial, eps=0) -> tuple[int, Sequence[Sequence[int]], list, int]:
    """``(den, d, slacks, eps)``, all integers over one common denominator ``den``.

    ``d`` is the metric and ``slacks`` lists ``(s, t, d(t, s) - (f(t) - f(s)))``
    over ordered pairs of distinct points of N, in ``(s, t)`` order; it does
    not depend on the point to cover, so every coverage question about one
    family reads this one list through ``_coverage``.
    """
    N = partial.domain
    den, d, (eps, *f) = common_scale(space, [eps, *(partial.values[p] for p in N)])
    f = dict(zip(N, f))
    return den, d, [(s, t, d[t][s] - (f[t] - f[s])) for s in N for t in N if s != t], eps


def _coverage(d, slacks, points, e):
    """``(p, slack, s, t)`` for each point p, on ``_function_slacks``'s integers.

    The slack of (s, t) at p is the larger of p's segment excess
    d(s, p) + d(t, p) - d(s, t) >= 0 and the function slack of (s, t); the
    pair is the first of ``slacks`` whose slack at p is below e, else the one
    of least ``(slack, s, t)``.
    """
    near = [(s, t, fun) for s, t, fun in slacks if fun < e]
    for p in points:
        for s, t, fun in near:
            if (excess := d[s][p] + d[t][p] - d[s][t]) < e:
                yield p, max(excess, fun), s, t
                break
        else:
            best = min((max(d[s][p] + d[t][p] - d[s][t], fun), s, t) for s, t, fun in slacks)
            yield (p, *best)


def _on_N(space: FiniteMetricSpace, pairs: Sequence[Pair]):
    """The family's table and f on N, which the one solve of a family re-checks
    by ``recheck_on_N``; NotAttainingError with the witness on a negative cycle."""
    table = closure(beta_matrix(space, pairs))
    if isinstance(table, NegativeCycleWitness):
        raise NotAttainingError(table)
    partial = build_on_N(space, pairs, table)
    recheck_on_N(space, pairs, partial.values)
    return table, partial


def _solve(space: FiniteMetricSpace, system: MoleculeSystem, eps=0):
    """``_on_N``'s table and f on N, and ``_function_slacks``."""
    table, partial = _on_N(space, system.pairs)
    return table, partial, _function_slacks(space, partial, eps)


def decide(space: FiniteMetricSpace, system: MoleculeSystem) -> DiffVerdict:
    """Full differentiability decision for a normalized molecule family."""
    if len(space) < 2:
        raise InputError("differentiability requires a space with >= 2 points")
    if not all(map(is_exact, system.weights)):
        raise InputError("each system weight must be an int or a Fraction")
    for i, w in enumerate(system.weights):
        if w <= 0:
            raise InputError(f"weight {i} must be strictly positive")
    if not system.normalized:
        raise InputError(
            f"system weights must sum to 1 exactly, got {exact(system.total_weight)}"
        )
    try:
        table, partial, (_, d, slacks, _) = _solve(space, system)
    except NotAttainingError as err:
        return DiffVerdict(kind=VerdictKind.NOT_GATEAUX, failure=NotAttaining(err.witness))
    n = len(system.pairs)
    loose = [(j, k) for j in range(n) for k in range(j + 1, n) if (j, k) not in table.rigid_pairs]
    if loose:
        return DiffVerdict(kind=VerdictKind.NOT_GATEAUX, failure=NonUniqueOnN(loose[0]))
    coverage: dict[int, tuple[int, int]] = {}
    for p, slack, s, t in _coverage(d, slacks, space.points(), 1):
        if slack:
            f = partial.values
            gap = min(f[a] + space.d(a, p) for a in f) - max(f[b] - space.d(b, p) for b in f)
            return DiffVerdict(kind=VerdictKind.NOT_GATEAUX, failure=Uncovered(p, gap))
        coverage[p] = (s, t)
    # full coverage pins the free constant, so normalise at the base point
    g1 = extend_upper(space, partial)
    shift = g1.values[space.base]
    norming = g1.replace(values=tuple(v - shift for v in g1.values))
    return DiffVerdict(kind=VerdictKind.FRECHET, norming=norming, coverage=coverage)


def check_gateaux_eps(
    space: FiniteMetricSpace, system: MoleculeSystem, eps
) -> GateauxEpsReport:
    """Epsilon-relaxed rigidity and coverage report for an attaining family."""
    eps = positive_eps(eps)
    table, _, (den, d, slacks, e) = _solve(space, system, eps)
    n = len(system.pairs)
    cond_i = tuple((j, k) for j in range(n) for k in range(j + 1, n)
                   if table.B[j][k] + table.B[k][j] >= eps)
    cond_ii = {p: (s, t, Fraction(slack, den))
               for p, slack, s, t in _coverage(d, slacks, space.points(), e) if slack >= e}
    return GateauxEpsReport(cond_i=cond_i, cond_ii=cond_ii)


def min_coverage_slack(
    space: FiniteMetricSpace, system: MoleculeSystem, point: int
) -> Fraction:
    """Smallest eps-defeating slack of a point over all candidate pairs.

    Zero iff the point is exactly covered; any eps at most this value keeps
    the point in the cond_ii failure set of check_gateaux_eps.
    """
    if not is_index(point, len(space)):
        raise InputError(f"point index {point!r} out of range")
    _, _, (den, d, slacks, _) = _solve(space, system)
    ((_, slack, _, _),) = _coverage(d, slacks, [point], 0)
    return Fraction(slack, den)


def coverage_eps_prefix(
    space: FiniteMetricSpace, system: MoleculeSystem, eps
) -> int | None:
    """Smallest prefix of the pair list whose eps-segments cover the space.

    Only pairs (s, t) of prefix points with f(s) - f(t) > d(s, t) - eps count;
    None when even the full list fails to cover.

    Pair (s, t) is usable from prefix max(first(s), first(t)), first(x) being
    the 1-based index of the first pair containing x. The condition on f is
    the slack of (t, s) being below eps, and the segment test is symmetric.
    """
    eps = positive_eps(eps)
    _, _, (_, d, slacks, eps) = _solve(space, system, eps)
    first: dict[int, int] = {}
    for upto, pair in enumerate(system.pairs, 1):
        for x in pair:
            first.setdefault(x, upto)
    usable = sorted((x for x in slacks if x[2] < eps),
                    key=lambda x: (max(first[x[0]], first[x[1]]), x))
    needed = 0
    for _, slack, s, t in _coverage(d, usable, space.points(), eps):
        if slack >= eps:
            return None
        needed = max(needed, first[s], first[t])
    return needed


def l1_basis_check(
    space: FiniteMetricSpace, pairs: Sequence[Pair], max_pairs: int = 20
) -> L1Verdict:
    """Decide whether the molecule family is isometrically an l1 basis.

    Every orientation pattern of the pairs must remain cyclically monotone;
    flipping all pairs at once corresponds to negating the norming function,
    so only patterns fixing the first pair's orientation are enumerated. The
    first failing pattern (in lexicographic order, False < True) is returned
    with its negative-cycle witness.

    Beta is built once over the pairs followed by their reversals, so pair j
    reversed is row and column j + n. Reversing a pair keeps its length,
    hence each pattern's beta is the submatrix on the indices j + n * flip_j,
    equal entry for entry to the beta of the oriented pairs. ``restrict``
    also cuts its integer rows out of the one scaled form of that beta.
    """
    if as_int(max_pairs, "max_pairs") < 1:
        raise InputError("max_pairs must be positive")
    pairs = _checked_pairs(space, pairs)
    n = len(pairs)
    if n == 0:
        return L1Verdict()
    if n > max_pairs:
        raise ResourceLimitError(
            f"l1 basis check is exponential; cap is {max_pairs} pairs, got {n}"
        )
    both = beta_matrix(space, pairs + tuple((y, x) for x, y in pairs))
    for flips in product((False, True), repeat=n - 1):
        orientation = (False,) + flips
        result = closure(both.restrict([j + n * flip for j, flip in enumerate(orientation)]))
        if isinstance(result, NegativeCycleWitness):
            return L1Verdict(orientation=orientation, witness=result)
    return L1Verdict()


def stability_bound(
    space: FiniteMetricSpace, system: MoleculeSystem
) -> StabilityBound:
    """Constant K = (4/theta + 1) * n^2 * D controlling near-norming functions.

    ``space.theta()`` and ``space.diameter()`` read the raw ``dist``, not its
    integer form, so that no scaling fault reaches a printed bound.
    """
    n = len(system.pairs)
    if n == 0:
        raise InputError("stability bound requires a nonempty system")
    return StabilityBound(theta=space.theta(), D=space.diameter(), n=n)


def frechet_verdict(space: FiniteMetricSpace, system: MoleculeSystem) -> DiffVerdict:
    """``decide``'s verdict once ``recheck_verdict`` has passed it; InputError
    unless it is Frechet. The re-check comes first, so that a wrong verdict of
    either kind is a ``CertificateMismatchError``, never an input error."""
    verdict = decide(space, system)
    recheck_verdict(space, system, verdict)
    if verdict.kind is not VerdictKind.FRECHET:
        raise InputError("stability bound applies to Frechet points only")
    return verdict


def verify_stability(
    space: FiniteMetricSpace,
    system: MoleculeSystem,
    g: LipschitzFunction,
    eps,
) -> bool:
    """Check the stability implication for one candidate function g.

    If g pairs against the element above 1 - eps * min(weights), its uniform
    distance to the norming function must be at most K * eps; the implication
    is vacuously true when the hypothesis fails. Then each pair's slack
    d(x, y) - (g(x) - g(y)) is below eps * d(x, y), which the n^2 * D
    factor of K needs.
    """
    return stability_holds(space, system, g, eps)[0]


def stability_holds(
    space: FiniteMetricSpace, system: MoleculeSystem, g: LipschitzFunction, eps
) -> tuple[bool, StabilityBound]:
    """``verify_stability`` with the family's bound, worked out here once the
    inputs pass, for the caller to report. The norming function f is the one
    of ``frechet_verdict``, re-checked before it is read."""
    f = frechet_verdict(space, system).norming
    eps = positive_eps(eps)
    lip = lipschitz_constant(space, g.values)
    if lip > 1:
        raise InputError(f"candidate function has Lipschitz constant {exact(lip)} > 1")
    if g.values[space.base] != 0:
        raise InputError("candidate function must vanish at the base point")
    bound = stability_bound(space, system)
    g_mu = sum(
        (
            w * (g.values[x] - g.values[y]) / space.d(x, y)
            for (x, y), w in zip(system.pairs, system.weights)
        ),
        Fraction(0),
    )
    if not g_mu > 1 - eps * min(system.weights):
        return True, bound
    gap = max(abs(f.values[p] - g.values[p]) for p in space.points())
    return gap <= bound.K * eps, bound


def recheck_verdict(
    space: FiniteMetricSpace, system: MoleculeSystem, verdict: DiffVerdict
) -> None:
    """Re-verify a differentiability verdict from raw inputs; raise on mismatch.

    A Frechet verdict is proved from f alone: if the arcs tight under
    alpha_k = f(y_k) join every two pair indices both ways, every norming g
    is f + c on N and on each tight segment of N; g(base) = 0 gives c = 0.

    A failure past attainment is proved from f on N, solved again: if f norms
    every pair and is 1-Lipschitz on N in raw Fractions, alpha_k = f(y_k)
    solve the constraints. A pair (j, k) that their tight arcs do not join
    both ways is not rigid, so the norming functions are not unique. A gap > 0
    at an uncovered point p makes the two extremal extensions of f, shifted
    to vanish at the base, two different norming functions.

    A Frechet verdict that carries a failure, and any other that carries a
    norming function or a coverage map, contradicts its own ``kind``.

    A failure names its indices as ``metric.is_index`` reads them: a point of
    the space for ``Uncovered``, and for ``NonUniqueOnN`` a tuple of two
    distinct pair indices, in either order. Any other index raises
    ``CertificateMismatchError`` before the family is solved. So do a
    Frechet norming function without one exact value per point and a
    coverage entry that is no tuple of two point indices, before either is read.
    """
    pairs = system.pairs
    if verdict.kind is VerdictKind.FRECHET:
        f = verdict.norming
        cov = verdict.coverage
        if f is None or cov is None:
            raise CertificateMismatchError("Frechet verdict missing certificates")
        if verdict.failure is not None:
            raise CertificateMismatchError("Frechet verdict carries a failure")
        n = len(space)
        recheck_function(space, f, "norming function")
        if not all(is_index(p, n) and type(st) is tuple and len(st) == 2
                   and all(is_index(i, n) for i in st) for p, st in cov.items()):
            raise CertificateMismatchError(
                f"every coverage entry must map a point to a pair of ints in range({n})")
        if f.values[space.base] != 0:
            raise CertificateMismatchError("norming function must vanish at base")
        if any(f.values[x] - f.values[y] != space.d(x, y) for x, y in pairs):
            raise CertificateMismatchError("function does not norm every molecule")
        rigid = tight_rigid_pairs(beta_matrix(space, pairs).beta, [f.values[y] for _, y in pairs])
        if len(rigid) != len(pairs) * (len(pairs) - 1) // 2:
            raise CertificateMismatchError("norming function is not unique on N")
        if set(cov) != set(space.points()):
            raise CertificateMismatchError("coverage map must mention every point")
        N = {p for pair in pairs for p in pair}
        for p, (s, t) in cov.items():
            if s == t or {s, t} - N or f.values[t] - f.values[s] != space.d(t, s):
                raise CertificateMismatchError(f"coverage of {p} is no tight pair of N")
            if space.d(s, p) + space.d(t, p) != space.d(s, t):
                raise CertificateMismatchError(f"point {p} not on its segment")
        return
    if verdict.norming is not None or verdict.coverage is not None:
        raise CertificateMismatchError("failed verdict carries Frechet certificates")
    failure = verdict.failure
    if isinstance(failure, NotAttaining):
        recheck_witness(beta_matrix(space, pairs), failure.witness)
        return
    if not isinstance(failure, (NonUniqueOnN, Uncovered)):
        raise CertificateMismatchError("verdict carries no failure object")
    if isinstance(failure, NonUniqueOnN):
        named, count, bound = failure.pair, 2, len(pairs)
    else:
        named, count, bound = (failure.point,), 1, len(space)
    if not (isinstance(named, tuple) and len(named) == count
            and all(is_index(i, bound) for i in named)
            and len(set(named)) == count):
        raise CertificateMismatchError(
            f"{failure}: indices must be {count} distinct ints in range({bound})")
    try:
        table, partial = _on_N(space, pairs)
    except NotAttainingError:
        raise CertificateMismatchError(f"{failure} claimed on a negative cycle") from None
    f = partial.values
    if isinstance(failure, NonUniqueOnN):
        if tuple(sorted(failure.pair)) in tight_rigid_pairs(table.beta, [f[y] for _, y in pairs]):
            raise CertificateMismatchError(f"pair {failure.pair} is actually rigid")
        return
    p = failure.point
    gap = min(f[a] + space.d(a, p) for a in f) - max(f[b] - space.d(b, p) for b in f)
    if gap <= 0:
        raise CertificateMismatchError(f"point {p} is actually covered")
    stated = failure.extension_gap
    if stated is not None and (not is_exact(stated) or stated != gap):
        raise CertificateMismatchError(f"stated extension gap {exact(stated)} is not {exact(gap)}")
