"""Finite pointed metric spaces with exact rational distances.

Every distance is a `fractions.Fraction` and every predicate in this package
is an exact comparison; no floating point enters any decision path.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import add
from typing import Sequence

from ._record import Record
from .errors import InputError, InvalidSpaceError


def is_exact(value) -> bool:
    """True iff ``value`` is an ``int`` (a ``bool`` is none) or a ``Fraction``."""
    return type(value) is int or type(value) is Fraction


def is_index(value, n: int) -> bool:
    """The one index rule: an ``int`` (a ``bool`` is none) in ``range(n)``."""
    return type(value) is int and 0 <= value < n


def as_int(value, where: str) -> int:
    """``value`` if it is an ``int`` (a ``bool`` is none); InputError otherwise."""
    if type(value) is not int:
        raise InputError(f"{where}: expected an int, got {value!r}")
    return value


def as_fraction(value, where: str = "value") -> Fraction:
    """An exact value (``is_exact``) as a Fraction; InputError otherwise.

    A Fraction is immutable, so one comes back as the same object.
    """
    if not is_exact(value):
        raise InputError(f"{where}: expected an exact rational, got {value!r}")
    return value if type(value) is Fraction else Fraction(value)


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


def common_scale(space: FiniteMetricSpace, values) -> tuple[int, Sequence[Sequence[int]], list]:
    """``(den, rows, ints)``: ``space.scaled`` and ``values`` over one common denominator.

    ``den`` is a multiple of the space's denominator and of every value's;
    the rows are the space's own integer rows whenever no value needs more.
    """
    den, rows = space.scaled
    common = lcm(den, *(v.denominator for v in values))
    if common != den:
        k = common // den
        rows = [[x * k for x in row] for row in rows]
    return common, rows, [v.numerator * (common // v.denominator) for v in values]


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


# the most violations a report lists; one is enough to refuse a matrix
MAX_VIOLATIONS = 100


class ValidationReport(Record):
    """Outcome of checking a raw labelled distance matrix.

    ``theta`` is the minimal positive distance and ``diameter`` the maximal
    entry; both are computed exactly even when validation fails. ``theta``
    is None when no positive entry exists; ``diameter`` is always a
    ``Fraction``, 0 on a single point. The matrix is a metric iff it has no
    violation.
    """

    violations: tuple[tuple[str, tuple[int, ...]], ...]
    theta: Fraction | None
    diameter: Fraction

    @property
    def ok(self) -> bool:
        return not self.violations


class FiniteMetricSpace(Record):
    """A labelled point set with exact pairwise distances and a base point.

    ``scaled`` is ``dist`` as integers over a common denominator, worked out
    on first read (``build_space``'s validation reads it first); every metric
    scan reads it, and only the values it reports become Fractions.
    """

    labels: tuple[str, ...]
    base: int
    dist: tuple[tuple[Fraction, ...], ...]

    @cached_property
    def scaled(self) -> tuple[int, Sequence[Sequence[int]]]:
        """``(den, rows)`` with ``rows[i][j] = dist[i][j] * den``, all integers."""
        den, rows = scale_to_integers(self.dist)
        return den, tuple(map(tuple, rows))

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
        """Minimal off-diagonal distance, read off the raw ``dist`` (not
        ``scaled``, so that no scaling fault reaches it); requires at least
        two points."""
        if len(self.labels) < 2:
            raise InputError("theta requires a space with at least 2 points")
        return Fraction(min(min(row[:i] + row[i + 1:]) for i, row in enumerate(self.dist)))

    def diameter(self) -> Fraction:
        """Maximal distance, read off the raw ``dist``; 0 on a single point."""
        return Fraction(max(map(max, self.dist)))


def validate_space(
    labels: Sequence[str], dist: Sequence[Sequence], base: str
) -> ValidationReport:
    """Check a raw labelled distance matrix against the metric axioms.

    Violations are reported as (kind, index tuple), ordered lexicographically
    by index tuple then kind, the first ``MAX_VIOLATIONS`` of them, for
    deterministic output. Structural problems (non-square matrix, unknown
    base label, non-rational entries) raise InputError instead of being
    reported.
    """
    return _validate(labels, dist, base)[0]


def _validate(
    labels: Sequence[str], dist: Sequence[Sequence], base: str
) -> tuple[ValidationReport, FiniteMetricSpace]:
    """``validate_space``'s report and the space it checked, valid or not.

    Every check runs on ``space.scaled``, the matrix over one common
    denominator, which keeps each sign, equality and sum comparison.
    """
    labels = tuple(labels)
    if not all(isinstance(l, str) for l in labels):
        raise InputError("point labels must be strings")
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
    space = FiniteMetricSpace(labels=labels, base=labels.index(base), dist=tuple(
        tuple(x if type(x) is Fraction else as_fraction(x, f"dist[{i}][{j}]")
              for j, x in enumerate(row))
        for i, row in enumerate(dist)
    ))
    den, scaled = space.scaled
    columns = list(zip(*scaled))

    violations: list[tuple[str, tuple[int, ...]]] = []
    for i in range(n):
        for j in range(i + 1, n):
            if labels[i] == labels[j]:
                violations.append(("dup-label", (i, j)))
    for i, row in enumerate(scaled):
        if row[i] != 0:
            violations.append(("nonzero-diag", (i,)))
        violations.extend(
            ("negative" if x < 0 else "zero-offdiag", (i, j))
            for j, x in enumerate(row)
            if x <= 0 and j != i
        )
        violations.extend(
            ("asymmetry", (i, j)) for j in range(i + 1, n) if row[j] != columns[i][j]
        )
    # triangle check: endpoints i < k, any intermediate j; j = i or k adds a
    # diagonal entry to direct, so no sum below direct means nothing to report
    for i in range(n):
        row = scaled[i]
        for k in range(i + 1, n):
            direct = row[k]
            if min(map(add, row, columns[k])) >= direct:
                continue
            violations.extend(
                ("triangle", (i, j, k))
                for j, (a, b) in enumerate(zip(row, columns[k]))
                if direct > a + b and j != i and j != k
            )

    violations.sort(key=lambda v: (v[1], v[0]))
    positives = [x for i, row in enumerate(scaled) for j, x in enumerate(row) if x > 0 and i != j]
    report = ValidationReport(
        violations=tuple(violations[:MAX_VIOLATIONS]),
        theta=Fraction(min(positives), den) if positives else None,
        diameter=Fraction(max(map(max, scaled)), den),
    )
    return report, space


def build_space(
    labels: Sequence[str], dist: Sequence[Sequence], base: str
) -> FiniteMetricSpace:
    """Validate raw data and return the space validated; raise on failure."""
    report, space = _validate(labels, dist, base)
    if not report.ok:
        raise InvalidSpaceError(report)
    return space


def segment(space: FiniteMetricSpace, s: int, t: int) -> frozenset[int]:
    """Points z with d(s,z) + d(t,z) = d(s,t), exactly; always contains s, t."""
    if not (is_index(s, len(space)) and is_index(t, len(space))) or s == t:
        raise InputError("segment endpoints must be distinct point indices")
    d = space.dist
    return frozenset(z for z in space.points() if d[s][z] + d[t][z] == d[s][t])


def segment_eps(
    space: FiniteMetricSpace, s: int, t: int, eps: Fraction
) -> frozenset[int]:
    """Points z with d(s,z) + d(t,z) < d(s,t) + eps (strict inequality)."""
    if not (is_index(s, len(space)) and is_index(t, len(space))) or s == t:
        raise InputError("segment endpoints must be distinct point indices")
    eps = positive_eps(eps)
    d = space.dist
    return frozenset(
        z for z in space.points() if d[s][z] + d[t][z] < d[s][t] + eps
    )
