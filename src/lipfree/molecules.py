"""Weighted molecule families and their derived exact data.

A molecule family is an ordered list of point pairs (x_i, y_i), x_i != y_i,
with positive rational weights. Two derived forms drive every decision in the
package: the beta matrix beta[j][k] = d(x_j, y_k) - d(x_j, y_j), and the
expansion into signed point masses with the base point eliminated.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Sequence

from ._record import Record
from .errors import InputError
from .metric import FiniteMetricSpace, as_fraction, is_index, scale_to_integers

Pair = tuple[int, int]


class MoleculeSystem(Record):
    """Ordered weighted family of molecules; order defines truncation prefixes."""

    pairs: tuple[Pair, ...]
    weights: tuple[Fraction, ...]

    @property
    def total_weight(self) -> Fraction:
        return sum(self.weights, Fraction(0))

    @property
    def normalized(self) -> bool:
        return self.total_weight == 1

    def __len__(self) -> int:
        return len(self.pairs)


class BetaMatrix(Record):
    """Square rational matrix with zero diagonal, indexed by pair positions.

    ``scaled`` is the same matrix over a common denominator, as integers;
    it is worked out on first read and shared by every ``restrict``.
    """

    beta: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        n = len(self.beta)
        rows = tuple(
            tuple(as_fraction(x, f"beta[{i}]") for x in row)
            for i, row in enumerate(self.beta)
        )
        if any(len(row) != n for row in rows):
            raise InputError("beta matrix must be square")
        for i in range(n):
            if rows[i][i] != 0:
                raise InputError(f"beta matrix diagonal must be zero (row {i})")
        object.__setattr__(self, "beta", rows)

    @property
    def size(self) -> int:
        return len(self.beta)

    @cached_property
    def scaled(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """``(den, rows)`` with ``rows[j][k] = beta[j][k] * den``, all integers."""
        den, rows = scale_to_integers(self.beta)
        return den, tuple(map(tuple, rows))

    def restrict(self, index: Sequence[int]) -> BetaMatrix:
        """The principal submatrix on ``index``, together with its integer rows.

        A principal submatrix of a valid beta is valid, so no entry is checked
        again, and the integer rows keep this matrix's denominator: a common
        multiple of the submatrix's denominators takes the same branches in
        every sum comparison and gives the same Fractions once divided back.
        """

        def pick(rows):
            return tuple(tuple(map(rows[j].__getitem__, index)) for j in index)

        den, scaled = self.scaled
        sub = object.__new__(BetaMatrix)
        object.__setattr__(sub, "beta", pick(self.beta))
        object.__setattr__(sub, "scaled", (den, pick(scaled)))
        return sub


class PointMassElement(Record):
    """Canonical finitely supported element: point index -> nonzero coefficient.

    The base point never appears (its evaluation functional is zero in the
    free space), and zero coefficients are dropped.
    """

    coeffs: dict[int, Fraction]


def build_system(
    space: FiniteMetricSpace,
    pairs: Sequence[Pair],
    weights: Sequence,
) -> MoleculeSystem:
    """Validate and freeze a molecule family.

    Zero or negative weights are rejected outright; duplicate pairs are kept.
    """
    if len(pairs) != len(weights):
        raise InputError("pairs and weights must have equal length")
    checked = _checked_pairs(space, pairs)
    ws = []
    for i, w in enumerate(weights):
        w = as_fraction(w, f"weight {i}")
        if w <= 0:
            raise InputError(f"weight {i} must be strictly positive")
        ws.append(w)
    return MoleculeSystem(pairs=checked, weights=tuple(ws))


def _checked_pairs(space: FiniteMetricSpace, pairs) -> tuple[Pair, ...]:
    """``pairs`` as a tuple; InputError unless each is two indices of distinct points."""
    n = len(space)
    checked = []
    for i, pair in enumerate(pairs):
        if not (isinstance(pair, (tuple, list)) and len(pair) == 2):
            raise InputError(f"pair {i}: expected two point indices, got {pair!r}")
        x, y = pair
        if not (is_index(x, n) and is_index(y, n)):
            raise InputError(f"pair {i}: point index out of range")
        if x == y:
            raise InputError(f"pair {i}: molecule endpoints must be distinct")
        checked.append((x, y))
    return tuple(checked)


def beta_matrix(space: FiniteMetricSpace, system_or_pairs) -> BetaMatrix:
    """beta[j][k] = d(x_j, y_k) - d(x_j, y_j), exactly; zero diagonal.

    Pairs given as a system or as raw index pairs are checked alike.
    """
    if isinstance(system_or_pairs, MoleculeSystem):
        system_or_pairs = system_or_pairs.pairs
    pairs = _checked_pairs(space, system_or_pairs)
    d = space.dist
    rows = tuple(
        tuple(d[xj][yk] - d[xj][yj] for (_, yk) in pairs)
        for (xj, yj) in pairs
    )
    return BetaMatrix(beta=rows)


def to_point_masses(
    space: FiniteMetricSpace, system: MoleculeSystem
) -> PointMassElement:
    """Expand sum of lambda_i * (delta_x - delta_y)/d(x,y) into coefficients."""
    coeffs: dict[int, Fraction] = {}
    for (x, y), w in zip(system.pairs, system.weights):
        unit = w / space.d(x, y)
        coeffs[x] = coeffs.get(x, Fraction(0)) + unit
        coeffs[y] = coeffs.get(y, Fraction(0)) - unit
    coeffs.pop(space.base, None)
    return PointMassElement(
        coeffs={p: c for p, c in sorted(coeffs.items()) if c != 0}
    )


def element_from_coeffs(space: FiniteMetricSpace, coeffs: dict) -> PointMassElement:
    """Build a canonical element from raw label-free coefficients.

    A coefficient on the base point is legal input but contributes nothing,
    so it is dropped along with zero coefficients.
    """
    out: dict[int, Fraction] = {}
    for p, c in coeffs.items():
        if not is_index(p, len(space)):
            raise InputError(f"coefficient index {p!r} out of range")
        c = as_fraction(c, f"coefficient of point {p}")
        if p == space.base or c == 0:
            continue
        out[p] = out.get(p, Fraction(0)) + c
    return PointMassElement(coeffs={p: c for p, c in sorted(out.items()) if c != 0})
