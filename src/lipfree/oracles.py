"""Independent brute-force reference implementations.

These enumerative procedures re-derive every decision of the fast paths on
small instances and back the CLI ``--oracle`` flag. They share no algorithm
with the procedures they check, only the integer scaling of distances:
cycles are enumerated explicitly, and the dual unit ball is swept through its
vertices by propagating signed distances over every spanning tree of the
complete point graph.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .errors import ResourceLimitError
from .metric import FiniteMetricSpace, scale_to_integers
from .molecules import BetaMatrix, MoleculeSystem, PointMassElement, to_point_masses

MAX_CYCLE_SIZE = 8
MAX_VERTEX_POINTS = 6


def brute_cycles(beta: BetaMatrix) -> tuple[Fraction, tuple[int, ...]]:
    """Minimal arc sum over all simple cycles, with an argmin cycle.

    Cycles of length one contribute the zero diagonal, so the result is the
    minimum of zero and the best cycle of length >= 2; the returned cycle is
    empty when no enumerated cycle beats zero. Enumeration is exhaustive and
    factorial, hence the hard size cap.
    """
    n = beta.size
    if n > MAX_CYCLE_SIZE:
        raise ResourceLimitError(
            f"brute_cycles caps at {MAX_CYCLE_SIZE} pairs, got {n}"
        )
    rows = beta.beta
    best_sum = Fraction(0)
    best_cycle: tuple[int, ...] = ()

    def dfs(start: int, path: list[int], used: set[int], total: Fraction):
        nonlocal best_sum, best_cycle
        u = path[-1]
        if len(path) >= 2:
            closing = total + rows[u][start]
            if closing < best_sum:
                best_sum = closing
                best_cycle = tuple(path)
        for v in range(start + 1, n):
            if v in used:
                continue
            used.add(v)
            path.append(v)
            dfs(start, path, used, total + rows[u][v])
            path.pop()
            used.discard(v)

    for s in range(n):
        dfs(s, [s], {s}, Fraction(0))
    return best_sum, best_cycle


def _prufer_edges(seq: tuple[int, ...], n: int) -> list[tuple[int, int]]:
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def _bfs_order(edges, n, root) -> list[tuple[int, int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    order = []
    seen = [False] * n
    seen[root] = True
    queue = [root]
    while queue:
        u = queue.pop(0)
        for v in sorted(adj[u]):
            if not seen[v]:
                seen[v] = True
                order.append((u, v))
                queue.append(v)
    return order


@lru_cache(maxsize=128)
def _vertex_value_vectors(space: FiniteMetricSpace) -> tuple[tuple[Fraction, ...], ...]:
    """All distinct vertices of {f : f 1-Lipschitz, f(base) = 0}.

    Propagates f(child) = f(parent) +/- d over every spanning tree in BFS
    order from the base, keeping only globally feasible assignments. Distances
    are scaled to integers first so the inner loops avoid Fraction arithmetic.
    """
    n = len(space)
    if n == 1:
        return ((Fraction(0),),)
    scale, dint = scale_to_integers(space.dist)
    base = space.base
    found: set[tuple[int, ...]] = set()
    vals: list[int | None] = [None] * n
    vals[base] = 0
    assigned = [base]

    def rec(order, k):
        if k == len(order):
            found.add(tuple(vals))  # type: ignore[arg-type]
            return
        p, c = order[k]
        row = dint[c]
        for sign in (1, -1):
            v = vals[p] + sign * dint[p][c]  # type: ignore[operator]
            if all(abs(v - vals[a]) <= row[a] for a in assigned):  # type: ignore[operator]
                vals[c] = v
                assigned.append(c)
                rec(order, k + 1)
                assigned.pop()
                vals[c] = None

    for seq in product(range(n), repeat=max(0, n - 2)):
        edges = _prufer_edges(tuple(seq), n)
        rec(_bfs_order(edges, n, base), 0)
    return tuple(
        tuple(Fraction(v, scale) for v in vec) for vec in sorted(found)
    )


def dual_vertices(space: FiniteMetricSpace) -> tuple[tuple[Fraction, ...], ...]:
    """Public wrapper around the vertex sweep, gated by the point cap."""
    if len(space) > MAX_VERTEX_POINTS:
        raise ResourceLimitError(
            f"dual vertex enumeration caps at {MAX_VERTEX_POINTS} points, "
            f"got {len(space)}"
        )
    return _vertex_value_vectors(space)


def brute_dual_norm(space: FiniteMetricSpace, element: PointMassElement) -> Fraction:
    """Norm as the maximum of the element pairing over all dual vertices."""
    best = Fraction(0)
    for vec in dual_vertices(space):
        obj = sum((c * vec[p] for p, c in element.coeffs.items()), Fraction(0))
        if obj > best:
            best = obj
    return best


def brute_norming_uniqueness(
    space: FiniteMetricSpace, system: MoleculeSystem
) -> bool:
    """True iff exactly one dual vertex pairs to the full total weight.

    The norming functionals form a face of the dual ball; the face is a
    single point iff all its vertices coincide, and it is empty iff the norm
    is not attained. Both failure modes return False.
    """
    target = system.total_weight
    element = to_point_masses(space, system)
    optimal = [
        vec
        for vec in dual_vertices(space)
        if sum((c * vec[p] for p, c in element.coeffs.items()), Fraction(0))
        == target
    ]
    return len(optimal) == 1
