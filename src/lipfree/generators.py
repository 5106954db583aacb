"""Deterministic construction of fixture spaces and random instances.

The star and truncated sup-norm spaces reproduce the two standing example
geometries of the package; random spaces draw bounded-denominator rationals
and repair them to the metric cone by shortest-path closure. The
near-degenerate profile plants exact midpoints because generic random metrics
almost never realise the exact equalities (segments, zero-sum cycles) that
the decision procedures branch on.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import InputError
from .metric import FiniteMetricSpace, as_fraction, build_space
from .metric import floyd_warshall, scale_to_integers

#: random distances have denominators in 1..DENOMINATOR_CAP; it seeds the rng too
DENOMINATOR_CAP = 64


def gen_star(k: int) -> FiniteMetricSpace:
    """Star of k satellites around the base: d(n, 0) = 1, d(m, n) = 2."""
    if k < 1:
        raise InputError("star space needs at least one satellite")
    labels = [str(i) for i in range(k + 1)]
    dist = [
        [
            Fraction(0) if i == j else (Fraction(1) if 0 in (i, j) else Fraction(2))
            for j in range(k + 1)
        ]
        for i in range(k + 1)
    ]
    return build_space(labels, dist, "0")


def gen_c0_truncation(k: int) -> FiniteMetricSpace:
    """First k points of the sup-norm sequence x_1 = 2e_1, x_n = e_1 + (1 + 2^-n) e_n.

    Exact distances: d(x_1, 0) = 2; d(x_n, 0) = d(x_1, x_n) = 1 + 2^-n for
    n >= 2; d(x_m, x_n) = 1 + 2^-min(m, n) for 2 <= m < n.
    """
    if k < 2:
        raise InputError("sup-norm truncation needs at least two sequence points")
    labels = ["0"] + [f"x{i}" for i in range(1, k + 1)]

    def dval(i: int, j: int) -> Fraction:
        # index 0 is the origin; index i >= 1 is x_i
        if i == j:
            return Fraction(0)
        a, b = min(i, j), max(i, j)
        if a == 0:
            return Fraction(2) if b == 1 else 1 + Fraction(1, 2**b)
        if a == 1:
            return 1 + Fraction(1, 2**b)
        return 1 + Fraction(1, 2**a)

    dist = [[dval(i, j) for j in range(k + 1)] for i in range(k + 1)]
    return build_space(labels, dist, "0")


def gen_line(k: int) -> FiniteMetricSpace:
    """k points at unit spacing on the rational line, base at the left end."""
    if k < 2:
        raise InputError("line space needs at least two points")
    labels = [str(i) for i in range(k)]
    dist = [[Fraction(abs(i - j)) for j in range(k)] for i in range(k)]
    return build_space(labels, dist, "0")


def repair_to_metric(matrix) -> list[list[Fraction]]:
    """Project a raw symmetric positive draw onto the metric cone.

    Symmetrises by the smaller entry, zeroes the diagonal, then closes under
    shortest paths; a valid metric passes through unchanged.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise InputError("matrix must be square")
    m = [[as_fraction(matrix[i][j], f"matrix[{i}][{j}]") for j in range(n)] for i in range(n)]
    for i in range(n):
        m[i][i] = Fraction(0)
        for j in range(i + 1, n):
            low = min(m[i][j], m[j][i])
            if low <= 0:
                raise InputError("off-diagonal entries must be positive")
            m[i][j] = m[j][i] = low
    den, scaled = scale_to_integers(m)
    floyd_warshall(scaled)
    return [[Fraction(x, den) for x in row] for row in scaled]


def _insert_midpoint(dist: list[list[Fraction]], u: int, v: int) -> None:
    """Append a point exactly halfway between u and v along a new graph edge."""
    n = len(dist)
    half = dist[u][v] / 2
    row = []
    for w in range(n):
        if w == u or w == v:
            row.append(half)
        else:
            row.append(half + min(dist[u][w], dist[v][w]))
    for w in range(n):
        dist[w].append(row[w])
    row.append(Fraction(0))
    dist.append(row)


def gen_random(points: int, seed: int, profile: str = "generic") -> FiniteMetricSpace:
    """Seeded random space; same arguments always give the identical space."""
    if points < 2:
        raise InputError("random space needs at least two points")
    if profile not in ("generic", "near-degenerate"):
        raise InputError(f"unknown profile {profile!r}")
    rng = random.Random((seed, points, profile, DENOMINATOR_CAP).__repr__())
    midpoints = 0
    core = points
    if profile == "near-degenerate" and points >= 3:
        midpoints = max(1, points // 4)
        core = points - midpoints
    raw = [[Fraction(0)] * core for _ in range(core)]
    for i in range(core):
        for j in range(i + 1, core):
            den = rng.randint(1, DENOMINATOR_CAP)
            num = rng.randint(1, 6 * den)
            raw[i][j] = raw[j][i] = Fraction(num, den)
    dist = repair_to_metric(raw)
    for _ in range(midpoints):
        u = rng.randrange(len(dist))
        v = rng.randrange(len(dist))
        while v == u:
            v = rng.randrange(len(dist))
        _insert_midpoint(dist, u, v)
    labels = [str(i) for i in range(points)]
    return build_space(labels, dist, "0")
