"""Potentials for the pairwise difference constraints alpha_k <= alpha_j + beta[k][j].

A solution exists iff every cycle of the beta matrix has nonnegative arc sum
(cyclical monotonicity of the underlying pair family), and is unique up to an
additive constant iff every unordered index pair {j,k} is *rigid*, meaning
B[j][k] + B[k][j] = 0 where B is the shortest-path closure of beta. Both
facts are decided here exactly, on beta scaled to common-denominator
integers: Bellman-Ford extracts a simple negative cycle when one exists,
Floyd-Warshall computes B otherwise.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record
from .errors import CertificateMismatchError, InputError
from .metric import FiniteMetricSpace, floyd_warshall, scale_to_integers
from .molecules import BetaMatrix, beta_matrix

Matrix = tuple[tuple[Fraction, ...], ...]


class NegativeCycleWitness(Record):
    """Simple cycle of pair indices whose beta arc sum is strictly negative."""

    cycle: tuple[int, ...]
    sum: Fraction


class PotentialTable(Record):
    """Shortest-path closure B of beta plus the solution anchored at pair 0.

    alphas[j] = B[j][anchor], with ``anchor`` always 0, so alphas[0] = 0.
    ``rigid_pairs`` holds every unordered pair {j,k} (stored as (j,k), j<k)
    with B[j][k]+B[k][j]=0; the solution is unique up to a constant iff all
    pairs are rigid.
    """

    beta: Matrix
    B: Matrix
    alphas: tuple[Fraction, ...]
    anchor: int
    globally_unique: bool
    rigid_pairs: frozenset[tuple[int, int]]


class MonotonicityVerdict(Record):
    holds: bool
    witness: NegativeCycleWitness | None
    table: PotentialTable | None


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
    the full table with B computed by an exact Floyd-Warshall triple loop.
    Both searches run on beta scaled to integers over its common
    denominator, which takes the same branches as the rational matrix; the
    witness sum is taken on the rational beta and B is converted back.
    """
    rows = beta.beta
    n = len(rows)
    if n == 0:
        raise InputError("beta matrix must be nonempty")
    den, B = scale_to_integers(rows)
    seen = _find_negative_cycle(B)
    if seen is not None:
        cycle = _rotate_min_first(seen)
        total = cycle_sum(rows, cycle)
        if total >= 0:
            raise CertificateMismatchError(
                "predecessor walk must produce a negative cycle"
            )
        return NegativeCycleWitness(cycle=cycle, sum=total)
    floyd_warshall(B)
    if any(B[j][j] != 0 for j in range(n)):
        raise CertificateMismatchError(
            "no negative cycles, so closed diagonal is zero"
        )
    rigid = frozenset(
        (j, k)
        for j in range(n)
        for k in range(j + 1, n)
        if B[j][k] + B[k][j] == 0
    )
    closed = tuple(tuple(Fraction(x, den) for x in row) for row in B)
    alphas = tuple(row[0] for row in closed)
    return PotentialTable(
        beta=rows,
        B=closed,
        alphas=alphas,
        anchor=0,
        globally_unique=len(rigid) == n * (n - 1) // 2,
        rigid_pairs=rigid,
    )


def _reconstruct(via, i: int, j: int) -> list[int]:
    k = via[i][j]
    if k is None:
        return [i, j]
    left = _reconstruct(via, i, k)
    right = _reconstruct(via, k, j)
    return left + right[1:]


def _strip_walk(nodes: list[int], keep: set[int]) -> list[int]:
    """Remove repeated-vertex loops from a closed walk without dropping ``keep``.

    Every removable loop has arc sum zero (each closed subwalk is nonnegative
    and the total is zero), so stripping preserves the zero total.
    """
    changed = True
    while changed:
        changed = False
        positions: dict[int, int] = {}
        for idx, v in enumerate(nodes):
            if v in positions:
                a, b = positions[v], idx
                inner = nodes[a:b]
                outer = nodes[b:] + nodes[:a]
                if keep <= set(outer):
                    nodes = outer
                    changed = True
                    break
                if keep <= set(inner):
                    nodes = inner
                    changed = True
                    break
            positions[v] = idx
    return nodes


def _simple_zero_cycle(beta: Matrix, B: Matrix, j: int, k: int) -> list[int] | None:
    """Depth-first search for a simple zero-sum cycle through j and k.

    Pruning: a partial path ending at u can only close at total zero if the
    best possible completion (via B) does not overshoot zero.
    """
    n = len(beta)

    def dfs(path: list[int], used: set[int], total: Fraction):
        u = path[-1]
        if k in used and total + beta[u][j] == 0:
            return list(path)
        bound = B[u][j] if k in used else B[u][k] + B[k][j]
        if total + bound > 0:
            return None
        for v in range(n):
            if v == j or v in used:
                continue
            path.append(v)
            used.add(v)
            found = dfs(path, used, total + beta[u][v])
            if found is not None:
                return found
            used.discard(v)
            path.pop()
        return None

    return dfs([j], {j}, Fraction(0))


def rigid_chain(table: PotentialTable, j: int, k: int) -> tuple[int, ...] | None:
    """Zero-sum cycle through pair indices j and k certifying their rigidity.

    Built by concatenating a minimizing j->k path with a minimizing k->j path
    and stripping loops; a direct search for a simple cycle runs if stripping
    leaves a repeat. Returns None when {j,k} is not rigid. In degenerate
    matrices no simple certificate exists and the returned closed walk may
    repeat an index; its arc sum is still exactly zero.
    """
    if j == k:
        raise InputError("rigid_chain requires two distinct pair indices")
    lo, hi = min(j, k), max(j, k)
    if (lo, hi) not in table.rigid_pairs:
        return None
    _, scaled = scale_to_integers(table.beta)
    via = floyd_warshall(scaled)
    forward = _reconstruct(via, j, k)
    backward = _reconstruct(via, k, j)
    walk = forward + backward[1:-1]
    walk = _strip_walk(walk, {j, k})
    if len(set(walk)) != len(walk):
        simple = _simple_zero_cycle(table.beta, table.B, j, k)
        if simple is not None:
            walk = simple
    lead = walk.index(j)
    chain = tuple(walk[lead:] + walk[:lead])
    if cycle_sum(table.beta, chain) != 0:
        raise CertificateMismatchError("rigidity chain must have zero arc sum")
    return chain


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
        return MonotonicityVerdict(holds=False, witness=result, table=None)
    return MonotonicityVerdict(holds=True, witness=None, table=result)


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
    if len(cyc) < 2 or len(set(cyc)) != len(cyc):
        raise CertificateMismatchError("witness cycle indices must be distinct")
    if any(not (0 <= i < n) for i in cyc):
        raise CertificateMismatchError("witness cycle index out of range")
    total = cycle_sum(beta.beta, cyc)
    if total != witness.sum or total >= 0:
        raise CertificateMismatchError(
            f"witness sum mismatch: recomputed {total}, stored {witness.sum}"
        )
