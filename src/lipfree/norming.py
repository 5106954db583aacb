"""Construction of norming Lipschitz functions from solved potentials.

Given potentials alpha for a cyclically monotone family, the assignment
f(y_i) = alpha_i, f(x_i) = alpha_i + d(x_i, y_i) is consistent on the pair
point set N and 1-Lipschitz there; the closed-form largest and smallest
1-Lipschitz extensions then produce certified functions on the whole space.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from ._record import Record
from .errors import CertificateMismatchError, InputError, exact
from .metric import FiniteMetricSpace
from .molecules import MoleculeSystem, Pair
from .potentials import PotentialTable


class PartialFunction(Record):
    """Exact values on a subset of points (the pair point set N)."""

    domain: tuple[int, ...]
    values: dict[int, Fraction]

    def __post_init__(self):
        object.__setattr__(self, "domain", tuple(sorted(self.domain)))
        if set(self.domain) != set(self.values):
            raise InputError("partial function domain and values disagree")


class LipschitzFunction(Record):
    """Value vector over all points with an exactly certified Lipschitz constant.

    ``base_pinned`` records whether the value at the base point is zero, i.e.
    whether the function is a genuine member of the space of base-vanishing
    Lipschitz functions rather than a representative modulo constants.
    """

    values: tuple[Fraction, ...]
    lip_constant: Fraction
    base_pinned: bool


def lipschitz_constant(space: FiniteMetricSpace, values: Sequence[Fraction]) -> Fraction:
    """Exact max of |f(p) - f(q)| / d(p,q); zero for fewer than two points."""
    best = Fraction(0)
    n = len(space)
    for p in range(n):
        for q in range(p + 1, n):
            ratio = abs(values[p] - values[q]) / space.d(p, q)
            if ratio > best:
                best = ratio
    return best


def make_function(
    space: FiniteMetricSpace, values: Sequence[Fraction]
) -> LipschitzFunction:
    """Freeze a value vector with its certified constant and base flag."""
    vals = tuple(Fraction(v) for v in values)
    if len(vals) != len(space):
        raise InputError("function must assign a value to every point")
    return LipschitzFunction(
        values=vals,
        lip_constant=lipschitz_constant(space, vals),
        base_pinned=vals[space.base] == 0,
    )


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
    return PartialFunction(domain=tuple(values), values=values)


def _check_extendable(space: FiniteMetricSpace, partial: PartialFunction):
    """InputError unless the partial function has a domain and is 1-Lipschitz on it."""
    dom = partial.domain
    if not dom:
        raise InputError("cannot extend a partial function with empty domain")
    for a in range(len(dom)):
        for b in range(a + 1, len(dom)):
            p, q = dom[a], dom[b]
            gap = abs(partial.values[p] - partial.values[q])
            if gap > space.d(p, q):
                raise InputError(
                    f"partial function is not 1-Lipschitz on its domain: "
                    f"|f({p}) - f({q})| = {exact(gap)} > d = {exact(space.d(p, q))}"
                )


def _extension(space: FiniteMetricSpace, vals: list[Fraction]) -> LipschitzFunction:
    """Certify an extension's values; its constant above 1 is an internal bug."""
    out = make_function(space, vals)
    if out.lip_constant > 1:
        raise CertificateMismatchError("a 1-Lipschitz extension has constant <= 1")
    return out


def extend_upper(
    space: FiniteMetricSpace, partial: PartialFunction
) -> LipschitzFunction:
    """Largest 1-Lipschitz extension: g1(x) = min over p in N of f(p) + d(p,x)."""
    _check_extendable(space, partial)
    return _extension(space, [
        min(partial.values[p] + space.d(p, x) for p in partial.domain)
        for x in space.points()
    ])


def extend_lower(
    space: FiniteMetricSpace, partial: PartialFunction
) -> LipschitzFunction:
    """Smallest 1-Lipschitz extension: g2(x) = max over p in N of f(p) - d(p,x)."""
    _check_extendable(space, partial)
    return _extension(space, [
        max(partial.values[p] - space.d(p, x) for p in partial.domain)
        for x in space.points()
    ])


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
