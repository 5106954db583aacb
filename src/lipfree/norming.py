"""Construction of norming Lipschitz functions from solved potentials.

Given potentials alpha for a cyclically monotone family, the assignment
f(y_i) = alpha_i, f(x_i) = alpha_i + d(x_i, y_i) is consistent on the pair
point set N and 1-Lipschitz there; the closed-form largest and smallest
1-Lipschitz extensions then produce certified functions on the whole space.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, sub
from typing import TYPE_CHECKING, Sequence

from ._record import Record
from .errors import CertificateMismatchError, InputError, exact
from .metric import FiniteMetricSpace, as_fraction, common_scale, is_exact
from .molecules import MoleculeSystem, Pair

if TYPE_CHECKING:
    from .potentials import PotentialTable


class PartialFunction(Record):
    """Exact values on a subset of points (the pair point set N)."""

    values: dict[int, Fraction]

    @property
    def domain(self) -> tuple[int, ...]:
        """The points that have a value, sorted."""
        return tuple(sorted(self.values))


class LipschitzFunction(Record):
    """Value vector over all points with an exactly certified Lipschitz constant.

    ``lip_constant`` restates what the values and the space determine, and is
    kept as the claim that ``recheck_function`` recomputes and compares.
    """

    values: tuple[Fraction, ...]
    lip_constant: Fraction


def lipschitz_constant(space: FiniteMetricSpace, values: Sequence[Fraction]) -> Fraction:
    """Exact max of |f(p) - f(q)| / d(p,q); zero for fewer than two points.

    With f(p) = a/b, f(q) = c/e and d(p, q) = r/s the ratio is |a e - c b| s
    / (b e r): the argmax cross-multiplies raw numerators and denominators
    and builds one Fraction. Re-checks call this too, so it never reads
    ``space.scaled``; InputError unless there is one exact value per point.
    """
    n = len(space)
    if len(values) != n or not all(map(is_exact, values)):
        raise InputError("function must assign a value to every point, each an int or a Fraction")
    nums = [values[p].numerator for p in range(n)]
    dens = [values[p].denominator for p in range(n)]
    best_num, best_den = 0, 1
    for p, row in enumerate(space.dist):
        a, b = nums[p], dens[p]
        for c, e, d in zip(nums[p + 1:], dens[p + 1:], row[p + 1:]):
            num = abs(a * e - c * b) * d.denominator
            den = b * e * d.numerator
            if num * best_den > best_num * den:
                best_num, best_den = num, den
    return Fraction(best_num, best_den)


def make_function(space: FiniteMetricSpace, values: Sequence[Fraction]) -> LipschitzFunction:
    """Freeze exact values (int or Fraction) with their certified constant."""
    vals = tuple(as_fraction(v, "function value") for v in values)
    return LipschitzFunction(values=vals, lip_constant=lipschitz_constant(space, vals))


def recheck_function(space: FiniteMetricSpace, f: LipschitzFunction, what: str) -> None:
    """CertificateMismatchError unless f, named ``what`` in the message, has
    one exact value per point and its stated constant is the recomputed one,
    at most 1. Whether f vanishes at the base is each caller's check."""
    if len(f.values) != len(space) or not all(map(is_exact, f.values)):
        raise CertificateMismatchError(
            f"{what} must have one value per point, each an int or a Fraction")
    lip = lipschitz_constant(space, f.values)
    if lip > 1 or lip != f.lip_constant:
        raise CertificateMismatchError(f"{what} constant is wrong")


def recheck_on_N(
    space: FiniteMetricSpace, pairs: Sequence[Pair], values: dict[int, Fraction]
) -> None:
    """CertificateMismatchError unless f on N, in raw Fractions, norms every
    pair, f(x) - f(y) = d(x, y), and is 1-Lipschitz on N."""
    if any(values[x] - values[y] != space.d(x, y) for x, y in pairs):
        raise CertificateMismatchError("f on N does not norm every molecule")
    if any(abs(values[a] - values[b]) > space.d(a, b) for a in values for b in values if a < b):
        raise CertificateMismatchError("f on N is not 1-Lipschitz")


def build_on_N(
    space: FiniteMetricSpace, pairs: Sequence[Pair], table: PotentialTable
) -> PartialFunction:
    """Assign f(y_i) = alpha_i and f(x_i) = alpha_i + d(x_i, y_i) on N.

    Coincident points receive consistent values whenever the table solves the
    constraints, so a conflict here is an internal bug, not bad input. When
    the base point belongs to N, all values are shifted so it reads zero;
    otherwise the anchor pins the free additive constant at alpha_anchor = 0.
    """
    values: dict[int, Fraction] = {}

    def assign(point: int, value: Fraction, what: str):
        old = values.get(point)
        if old is not None and old != value:
            raise CertificateMismatchError(
                f"conflicting assignments at point {point} ({what}): "
                f"{exact(old)} vs {exact(value)}"
            )
        values[point] = value

    for i, (x, y) in enumerate(pairs):
        assign(y, table.alphas[i], f"y of pair {i}")
        assign(x, table.alphas[i] + space.d(x, y), f"x of pair {i}")
    if space.base in values:
        shift = values[space.base]
        values = {p: v - shift for p, v in values.items()}
    return PartialFunction(values)


def _extension(
    space: FiniteMetricSpace, partial: PartialFunction, sign: int
) -> LipschitzFunction:
    """At every x, the min (``sign`` 1) or max (-1) over a in N of f(a) + sign d(a, x).

    InputError unless the partial function has a domain and is 1-Lipschitz
    on it; the result's constant above 1 is an internal bug. Values found on
    integers over one denominator common to the space and f are re-checked
    on the raw Fractions as in ``lipschitz_constant``: sign (f(a) - g(x)) +
    d(a, x) >= 0 for every a in N, zero for some. Then the term a = x makes
    g equal f on N iff f is 1-Lipschitz there; only a mismatch seeks a pair.
    """
    dom = partial.domain
    if not dom:
        raise InputError("cannot extend a partial function with empty domain")
    fv = partial.values
    den, d, f = common_scale(space, [fv[p] for p in dom])
    op, pick = (add, min) if sign > 0 else (sub, max)
    columns = zip(*(d[p] for p in dom))
    out = make_function(space, [Fraction(pick(map(op, f, col)), den) for col in columns])
    if out.lip_constant > 1:
        raise CertificateMismatchError("a 1-Lipschitz extension has constant <= 1")
    raw = [(fv[a].numerator, fv[a].denominator, a) for a in dom]
    for x, (g, row) in enumerate(zip(out.values, space.dist)):
        gn, gd = g.numerator, g.denominator
        if min(sign * (fn * gd - gn * fd) * row[a].denominator + row[a].numerator * fd * gd
               for fn, fd, a in raw):
            raise CertificateMismatchError(f"extension at point {x} is no {pick.__name__} over N")
    if any(out.values[p] != fv[p] for p in dom):
        for i, p in enumerate(dom):
            for q in dom[i + 1:]:
                if (gap := abs(fv[p] - fv[q])) > space.d(p, q):
                    raise InputError(
                        f"partial function is not 1-Lipschitz on its domain: "
                        f"|f({p}) - f({q})| = {exact(gap)} > d = {exact(space.d(p, q))}"
                    )
        raise CertificateMismatchError("extension differs from f on N, which is 1-Lipschitz")
    return out


def extend_upper(
    space: FiniteMetricSpace, partial: PartialFunction
) -> LipschitzFunction:
    """Largest 1-Lipschitz extension: g1(x) = min over p in N of f(p) + d(p,x)."""
    return _extension(space, partial, 1)


def extend_lower(
    space: FiniteMetricSpace, partial: PartialFunction
) -> LipschitzFunction:
    """Smallest 1-Lipschitz extension: g2(x) = max over p in N of f(p) - d(p,x)."""
    return _extension(space, partial, -1)


def verify_norming(
    space: FiniteMetricSpace, system: MoleculeSystem, f: LipschitzFunction
) -> bool:
    """True iff f(x_i) - f(y_i) = d(x_i, y_i) exactly for every pair.

    For a function with Lipschitz constant at most 1 this certifies that the
    family norm equals the total weight for any positive weight choice.
    """
    actual = lipschitz_constant(space, f.values)
    if actual > 1:
        raise InputError(f"function has Lipschitz constant {exact(actual)} > 1")
    return all(
        f.values[x] - f.values[y] == space.d(x, y) for x, y in system.pairs
    )
