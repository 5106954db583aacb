"""Potentials for the pairwise difference constraints alpha_k <= alpha_j + beta[k][j].

A solution exists iff every cycle of the beta matrix has nonnegative arc sum
(cyclical monotonicity of the underlying pair family), and is unique up to an
additive constant iff every unordered index pair {j,k} is *rigid*, meaning
B[j][k] + B[k][j] = 0 where B is the shortest-path closure of beta. Both
facts are decided here exactly, on beta scaled to common-denominator
integers: Bellman-Ford alone decides solvability and extracts a simple
negative cycle when one exists; Floyd-Warshall computes B only when a table's
B, alphas or rigid pairs are first read.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Sequence

from ._record import Record
from .errors import CertificateMismatchError, InputError, exact
from .metric import FiniteMetricSpace, floyd_warshall, is_index
from .molecules import BetaMatrix, beta_matrix

Matrix = tuple[tuple[Fraction, ...], ...]


class NegativeCycleWitness(Record):
    """Simple cycle of pair indices whose beta arc sum is strictly negative.

    ``sum`` restates what the cycle and beta determine, and is kept as the
    claim that ``recheck_witness`` recomputes and compares.
    """

    cycle: tuple[int, ...]
    sum: Fraction


class PotentialTable(Record):
    """Shortest-path closure B of beta plus the solution anchored at pair 0.

    The one field, ``matrix``, is the BetaMatrix closed; ``beta`` is its
    Fraction rows. alphas[j] = B[j][anchor], with ``anchor`` the constant 0,
    so alphas[0] = 0. ``rigid_pairs`` holds every unordered pair {j,k}
    (stored as (j,k), j<k) with B[j][k]+B[k][j]=0; the solution is unique up
    to a constant iff all pairs are rigid.

    B, alphas, rigid_pairs and globally_unique are functions of beta, so
    they are not fields: they are built on first read from ``_closed``,
    Floyd-Warshall run on a copy of ``matrix.scaled``. Tables of one beta
    are equal whatever denominator that integer form has.
    """

    matrix: BetaMatrix
    anchor = 0

    @property
    def beta(self) -> Matrix:
        return self.matrix.beta

    @cached_property
    def _closed(self) -> tuple[int, list[list[int]]]:
        den, scaled = self.matrix.scaled
        rows = [list(row) for row in scaled]
        floyd_warshall(rows)
        if any(row[j] for j, row in enumerate(rows)):
            raise CertificateMismatchError(
                "no negative cycles, so closed diagonal is zero"
            )
        return den, rows

    @cached_property
    def B(self) -> Matrix:
        den, rows = self._closed
        return tuple(tuple(Fraction(x, den) for x in row) for row in rows)

    @cached_property
    def alphas(self) -> tuple[Fraction, ...]:
        den, rows = self._closed
        return tuple(Fraction(row[self.anchor], den) for row in rows)

    @cached_property
    def rigid_pairs(self) -> frozenset[tuple[int, int]]:
        _, rows = self._closed
        n = len(rows)
        pairs = ((j, k) for j in range(n) for k in range(j + 1, n))
        return frozenset((j, k) for j, k in pairs if rows[j][k] + rows[k][j] == 0)

    @cached_property
    def globally_unique(self) -> bool:
        n = len(self.beta)
        return len(self.rigid_pairs) == n * (n - 1) // 2


class MonotonicityVerdict(Record):
    """A negative-cycle ``witness``, or the ``table`` that solves the family."""

    witness: NegativeCycleWitness | None = None
    table: PotentialTable | None = None

    @property
    def holds(self) -> bool:
        return self.witness is None


def cycle_sum(beta: Matrix, cycle: tuple[int, ...]) -> Fraction:
    """Arc sum beta[c0][c1] + ... + beta[cm][c0] of a closed index walk."""
    m = len(cycle)
    return sum(
        (beta[cycle[i]][cycle[(i + 1) % m]] for i in range(m)), Fraction(0)
    )


def _rotate_min_first(cycle: list[int]) -> tuple[int, ...]:
    k = cycle.index(min(cycle))
    return tuple(cycle[k:] + cycle[:k])


def _find_negative_cycle(beta: list[list[int]]) -> list[int] | None:
    """Bellman-Ford from a virtual source; predecessor walk yields a simple cycle."""
    n = len(beta)
    dist = [0] * n
    pred: list[int | None] = [None] * n
    touched = None
    for _ in range(n):
        touched = None
        for u in range(n):
            du = dist[u]
            row = beta[u]
            for v in range(n):
                via = du + row[v]
                if via < dist[v] and u != v:
                    dist[v] = via
                    pred[v] = u
                    touched = v
        if touched is None:
            return None
    # walk predecessors n steps to land inside the cycle, then collect it
    x = touched
    for _ in range(n):
        x = pred[x]  # type: ignore[assignment]
    seen = [x]
    y = pred[x]
    while y != x:
        seen.append(y)  # type: ignore[arg-type]
        y = pred[y]  # type: ignore[index]
    seen.reverse()  # pred edges point backwards
    return seen


def closure(beta: BetaMatrix) -> PotentialTable | NegativeCycleWitness:
    """Decide solvability of the difference constraints for a beta matrix.

    Returns a NegativeCycleWitness when some cycle has negative arc sum, else
    the table, which runs Floyd-Warshall only when it is read. Bellman-Ford
    decides on ``beta.scaled``, beta as integers over a common denominator,
    which takes the same branches as the rational matrix; only a witness
    reads the rational beta, for its sum.
    """
    rows = beta.scaled[1]
    if not rows:
        raise InputError("beta matrix must be nonempty")
    seen = _find_negative_cycle(rows)
    if seen is not None:
        cycle = _rotate_min_first(seen)
        total = cycle_sum(beta.beta, cycle)
        if total >= 0:
            raise CertificateMismatchError(
                "predecessor walk must produce a negative cycle"
            )
        return NegativeCycleWitness(cycle=cycle, sum=total)
    return PotentialTable(matrix=beta)


def tight_rigid_pairs(
    beta: Matrix, alphas: Sequence[Fraction]
) -> frozenset[tuple[int, int]]:
    """Index pairs (j, k), j < k, joined both ways by arcs tight under ``alphas``.

    Arc k -> j is tight when alphas[k] = alphas[j] + beta[k][j]. For a
    solution alphas these are the rigid pairs: every arc of a zero cycle is
    tight, and any other solution differs from alphas by one constant on
    indices joined both ways. Reachability is Warshall's, on bit masks.
    """
    n = len(beta)
    reach = [
        sum(1 << j for j in range(n) if alphas[k] == alphas[j] + beta[k][j])
        for k in range(n)
    ]
    for m in range(n):
        for k in range(n):
            if reach[k] >> m & 1:
                reach[k] |= reach[m]
    pairs = ((j, k) for j in range(n) for k in range(j + 1, n))
    return frozenset(
        (j, k) for j, k in pairs if reach[j] >> k & 1 and reach[k] >> j & 1
    )


def check_cyclical_monotonicity(
    space: FiniteMetricSpace, pairs
) -> MonotonicityVerdict:
    """Decide whether every pair cycle has aligned sum <= cross sum.

    The aligned sum is d(x_i1,y_i1) + ... + d(x_im,y_im) and the cross sum
    d(x_i1,y_i2) + ... + d(x_im,y_i1); the condition over all cycles is
    equivalent to the beta matrix having no negative cycle.
    """
    result = closure(beta_matrix(space, pairs))
    if isinstance(result, NegativeCycleWitness):
        return MonotonicityVerdict(witness=result)
    return MonotonicityVerdict(table=result)


def aligned_and_cross_sums(
    space: FiniteMetricSpace, pairs, cycle: tuple[int, ...]
) -> tuple[Fraction, Fraction]:
    """Both sides of the cycle inequality violated by a witness."""
    pairs = list(pairs)
    m = len(cycle)
    aligned = sum(
        (space.d(*pairs[cycle[i]]) for i in range(m)), Fraction(0)
    )
    cross = sum(
        (
            space.d(pairs[cycle[i]][0], pairs[cycle[(i + 1) % m]][1])
            for i in range(m)
        ),
        Fraction(0),
    )
    return aligned, cross


def recheck_witness(beta: BetaMatrix, witness: NegativeCycleWitness) -> None:
    """Re-verify a negative-cycle witness from the raw matrix alone."""
    n = beta.size
    cyc = witness.cycle
    if not all(is_index(i, n) for i in cyc):
        raise CertificateMismatchError(
            f"witness cycle index out of range: indices must be ints in range({n})")
    if len(cyc) < 2 or len(set(cyc)) != len(cyc):
        raise CertificateMismatchError("witness cycle indices must be distinct")
    total = cycle_sum(beta.beta, cyc)
    if total != witness.sum or total >= 0:
        raise CertificateMismatchError(
            f"witness sum mismatch: recomputed {exact(total)}, "
            f"stored {exact(witness.sum)}"
        )
