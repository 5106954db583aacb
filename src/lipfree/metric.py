"""Finite pointed metric spaces with exact rational distances.

Every distance is a `fractions.Fraction` and every predicate in this package
is an exact comparison; no floating point enters any decision path.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from numbers import Rational
from typing import Sequence

from ._record import Record
from .errors import InputError, InvalidSpaceError


def as_fraction(value, where: str = "value") -> Fraction:
    """Coerce an exact rational (int or Fraction) to Fraction, rejecting floats.

    A Fraction is immutable, so one comes back as the same object.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, bool) or not isinstance(value, Rational):
        raise InputError(f"{where}: expected an exact rational, got {value!r}")
    return Fraction(value)


def positive_eps(eps) -> Fraction:
    """``eps`` as an exact Fraction; InputError unless it is positive."""
    eps = as_fraction(eps, "eps")
    if eps <= 0:
        raise InputError("eps must be positive")
    return eps


def scale_to_integers(rows) -> tuple[int, list[list[int]]]:
    """Common-denominator form ``(den, scaled)`` of a matrix of Fractions.

    ``den`` is the lcm of every entry's denominator and ``scaled[i][j]`` is
    the integer ``rows[i][j] * den``. Multiplying by a positive constant
    preserves every sum comparison, so a loop that only adds and compares
    entries takes the same branches on ``scaled`` as on ``rows``.
    """
    den = lcm(*(x.denominator for row in rows for x in row))
    return den, [[x.numerator * (den // x.denominator) for x in row] for row in rows]


def floyd_warshall(rows: list[list[int]]) -> None:
    """Close a square integer matrix under shortest paths, in place.

    The caller rules out negative cycles.
    """
    for k, row_k in enumerate(rows):
        for row_i in rows:
            ik = row_i[k]
            for j, kj in enumerate(row_k):
                cand = ik + kj
                if cand < row_i[j]:
                    row_i[j] = cand


class ValidationReport(Record):
    """Outcome of checking a raw labelled distance matrix.

    ``theta`` is the minimal positive distance and ``diameter`` the maximal
    one; both are computed exactly even when validation fails, and ``theta``
    is None when no positive entry exists.
    """

    ok: bool
    violations: tuple[tuple[str, tuple[int, ...]], ...]
    theta: Fraction | None
    diameter: Fraction | None


class FiniteMetricSpace(Record):
    """A labelled point set with exact pairwise distances and a base point."""

    labels: tuple[str, ...]
    base: int
    dist: tuple[tuple[Fraction, ...], ...]

    def __len__(self) -> int:
        return len(self.labels)

    def points(self) -> range:
        return range(len(self.labels))

    def d(self, i: int, j: int) -> Fraction:
        return self.dist[i][j]

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise InputError(f"unknown point label {label!r}") from None

    def theta(self) -> Fraction:
        """Minimal positive distance; requires at least two points."""
        if len(self.labels) < 2:
            raise InputError("theta requires a space with at least 2 points")
        return min(
            self.dist[i][j]
            for i in self.points()
            for j in self.points()
            if i != j
        )

    def diameter(self) -> Fraction:
        return max((x for row in self.dist for x in row), default=Fraction(0))


def validate_space(
    labels: Sequence[str],
    dist: Sequence[Sequence],
    base: str,
    *,
    max_violations: int = 100,
) -> ValidationReport:
    """Check a raw labelled distance matrix against the metric axioms.

    Violations are reported as (kind, index tuple), ordered lexicographically
    by index tuple then kind, capped at ``max_violations`` for deterministic
    output. Structural problems (non-square matrix, unknown base label,
    non-rational entries) raise InputError instead of being reported.
    """
    return _validate(labels, dist, base, max_violations)[0]


def _validate(
    labels: Sequence[str], dist: Sequence[Sequence], base: str, max_violations: int
) -> tuple[ValidationReport, list[list[Fraction]]]:
    """``validate_space``'s report together with the converted matrix."""
    labels = [str(l) for l in labels]
    n = len(labels)
    if n == 0:
        raise InputError("space must contain at least one point")
    if base not in labels:
        raise InputError(f"base label {base!r} not among the point labels")
    if not isinstance(dist, (list, tuple)) or any(
        not isinstance(row, (list, tuple)) for row in dist
    ):
        raise InputError("distance matrix must be a list of rows")
    if len(dist) != n or any(len(row) != n for row in dist):
        raise InputError(f"distance matrix must be {n}x{n}")
    m = [
        [as_fraction(dist[i][j], f"dist[{i}][{j}]") for j in range(n)]
        for i in range(n)
    ]

    violations: list[tuple[str, tuple[int, ...]]] = []
    for i in range(n):
        for j in range(i + 1, n):
            if labels[i] == labels[j]:
                violations.append(("dup-label", (i, j)))
    for i in range(n):
        if m[i][i] != 0:
            violations.append(("nonzero-diag", (i,)))
        for j in range(n):
            if i == j:
                continue
            if m[i][j] < 0:
                violations.append(("negative", (i, j)))
            elif m[i][j] == 0:
                violations.append(("zero-offdiag", (i, j)))
    for i in range(n):
        for j in range(i + 1, n):
            if m[i][j] != m[j][i]:
                violations.append(("asymmetry", (i, j)))
    # triangle check on integers: endpoints i < k, any intermediate j
    _, scaled = scale_to_integers(m)
    columns = list(zip(*scaled))
    for i in range(n):
        row = scaled[i]
        for k in range(i + 1, n):
            direct = row[k]
            violations.extend(
                ("triangle", (i, j, k))
                for j, (a, b) in enumerate(zip(row, columns[k]))
                if direct > a + b and j != i and j != k
            )

    ok = not violations
    violations.sort(key=lambda v: (v[1], v[0]))
    positives = [m[i][j] for i in range(n) for j in range(n) if i != j and m[i][j] > 0]
    theta = min(positives) if positives else None
    diameter = max(x for row in m for x in row) if n else Fraction(0)
    report = ValidationReport(
        ok=ok,
        violations=tuple(violations[:max_violations]),
        theta=theta,
        diameter=diameter,
    )
    return report, m


def build_space(
    labels: Sequence[str], dist: Sequence[Sequence], base: str
) -> FiniteMetricSpace:
    """Validate raw data and construct an immutable space; raise on failure."""
    report, m = _validate(labels, dist, base, 100)
    if not report.ok:
        raise InvalidSpaceError(report)
    labels = tuple(str(l) for l in labels)
    rows = tuple(tuple(row) for row in m)
    return FiniteMetricSpace(labels=labels, base=labels.index(base), dist=rows)


def segment(space: FiniteMetricSpace, s: int, t: int) -> frozenset[int]:
    """Points z with d(s,z) + d(t,z) = d(s,t), exactly; always contains s, t."""
    if s == t:
        raise InputError("segment endpoints must be distinct")
    d = space.dist
    return frozenset(z for z in space.points() if d[s][z] + d[t][z] == d[s][t])


def segment_eps(
    space: FiniteMetricSpace, s: int, t: int, eps: Fraction
) -> frozenset[int]:
    """Points z with d(s,z) + d(t,z) < d(s,t) + eps (strict inequality)."""
    if s == t:
        raise InputError("segment endpoints must be distinct")
    eps = positive_eps(eps)
    d = space.dist
    return frozenset(
        z for z in space.points() if d[s][z] + d[t][z] < d[s][t] + eps
    )
