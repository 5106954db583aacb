"""Exact free-space norm of finitely supported elements, with certificates.

The norm is the optimal transportation cost between the positive and negative
parts of the coefficient vector, the base point absorbing the residual mass.
A successive-shortest-path min-cost flow over the complete point graph, run
exactly on common-denominator integers, yields both the optimal plan and,
through its node potentials, a 1-Lipschitz dual function realising the same
value, so every certificate carries a zero duality gap by construction.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

from ._record import Record
from .errors import CertificateMismatchError, InputError
from .metric import FiniteMetricSpace, as_fraction, is_exact, is_index, scale_to_integers
from .molecules import MoleculeSystem, PointMassElement, to_point_masses
from .norming import LipschitzFunction, recheck_function

PlanLeg = tuple[int, int, Fraction]


class TransportCertificate(Record):
    """Primal plan and dual function proving the norm value exactly."""

    value: Fraction
    plan: tuple[PlanLeg, ...]
    dual: LipschitzFunction


def _balances(space: FiniteMetricSpace, element: PointMassElement) -> list[Fraction]:
    n = len(space)
    balance = [Fraction(0)] * n
    for p, c in element.coeffs.items():
        if not is_index(p, n):
            raise InputError(f"coefficient index {p!r} out of range")
        if p == space.base:
            raise InputError(f"coefficient index {p!r} is the base point, which takes none")
        balance[p] = as_fraction(c, f"coefficient of point {p}")
    balance[space.base] = -sum(element.coeffs.values())
    return balance


def _dijkstra(cost, into, pi, source, excess):
    """Reduced-cost search in the residual graph from ``source`` to the first
    deficit point it settles: ``(dist, pred, t)``, where ``excess[t] < 0``.

    Residual arcs: every forward arc (u,v) at cost d(u,v) (infinite capacity),
    plus the reverse arc of each positive-flow arc at cost -d; ``into[v]``
    maps u to the flow on u -> v. The reverse arc is always the cheaper
    option when present. All arguments are integers on one common
    denominator.

    The search returns as soon as it settles t, before relaxing t's arcs.
    Points settle in order of distance, so ``dist`` and ``pred`` are final
    on every point settled so far and ``dist[t]`` is the least distance of
    any deficit point; every other label is at least ``dist[t]``. The
    source relaxes a forward arc to every point, so every point has a label.

    Forward arcs are relaxed only from the source and from points entered by
    a reverse arc. A point u entered by forward arcs from the last such point
    h has dist[u] = dist[h] + (path cost h..u) - pi[h] + pi[u], so by the
    triangle inequality dist[u] + rc(u, v) >= dist[h] + rc(h, v) for every
    forward arc (u, v): h already relaxed v at least as well, and relabels
    happen only on a strict improvement. The potentials cancel in that sum,
    so this holds for any potentials. Every arc relaxed is checked for a
    nonnegative reduced cost; the forward arcs skipped are nonnegative on a
    metric cost whenever those are, since u settles no later than v.
    """
    n = len(cost)
    dist: list[int | None] = [None] * n
    pred: list[int | None] = [None] * n
    dist[source] = 0
    heap: list[tuple[int, int]] = [(0, source)]
    settled = [False] * n
    while heap:
        du, u = heapq.heappop(heap)
        if settled[u]:
            continue
        if excess[u] < 0:
            return dist, pred, u
        settled[u] = True
        cost_u = cost[u]
        pi_u = pi[u]
        back = into[u]
        for v in range(n) if u == source or u in into[pred[u]] else back:
            if v == u or settled[v]:
                continue
            rc = (-cost[v][u] if v in back else cost_u[v]) - pi_u + pi[v]
            if rc < 0:
                raise CertificateMismatchError("reduced costs must stay nonnegative")
            cand = du + rc
            dv = dist[v]
            if dv is None or cand < dv:
                dist[v] = cand
                pred[v] = u
                heapq.heappush(heap, (cand, v))
    raise CertificateMismatchError("no deficit point is reachable from the source")


def _solve_flow(space: FiniteMetricSpace, balance: list[Fraction]):
    """Return (plan, potentials) for the given supply/demand vector.

    Successive shortest paths on integers: costs are the distances and
    excesses the balances, each scaled by its own common denominator, so
    every comparison, heap order and tie-break is the one the rational
    problem would take. Only the results are converted back.

    Each search runs from the first supply point s to the first deficit
    point t it settles, and the augmentation runs along t's predecessors.
    The potentials are then lowered by ``min(dist[v], dist[t])``: by
    ``dist[v]`` on the points settled, by ``dist[t]`` on the rest. Every
    residual arc (u, v) keeps a nonnegative reduced cost. If u settled,
    dist[v] <= dist[u] + rc(u, v): v settled first, or u relaxed v, or (for
    a skipped forward arc) a point before u relaxed v at least as well. If
    not, u is lowered by dist[t], and no point is lowered by more. The arcs
    of the path are tight, so the reverse arcs the augmentation opens are
    tight too.

    The flow is the plan. By the triangle inequality a path through a third
    point never costs less than the direct arc, and ``_dijkstra`` relabels a
    point only on a strict improvement, so the direct arc keeps every tie and
    flow only ever runs from a supply point straight to a demand point.
    Sorting the flow's arcs gives the legs in (source, sink) order.
    """
    n = len(space)
    den, cost = space.scaled
    mass_den, (excess,) = scale_to_integers([balance])
    into: list[dict[int, int]] = [{} for _ in range(n)]
    pi = [0] * n
    while True:
        sources = [i for i in range(n) if excess[i] > 0]
        if not sources:
            break
        s = sources[0]
        dist, pred, t = _dijkstra(cost, into, pi, s, excess)
        # walk predecessors to collect the augmenting path s -> t
        arcs: list[tuple[int, int]] = []
        v = t
        while v != s:
            u = pred[v]
            arcs.append((u, v))
            v = u
        arcs.reverse()
        amount = min(excess[s], -excess[t])
        for u, v in arcs:
            if v in into[u]:
                amount = min(amount, into[u][v])
        if amount <= 0:
            raise CertificateMismatchError("augmenting amount must be positive")
        for u, v in arcs:
            if v in into[u]:
                into[u][v] -= amount
                if not into[u][v]:
                    del into[u][v]
            else:
                into[v][u] = into[v].get(u, 0) + amount
        excess[s] -= amount
        excess[t] += amount
        dt = dist[t]
        pi = [p - min(d, dt) for p, d in zip(pi, dist)]
    plan = tuple(sorted(
        (u, v, Fraction(x, mass_den)) for v, row in enumerate(into) for u, x in row.items()
    ))
    return plan, [Fraction(p, den) for p in pi]


def free_norm(
    space: FiniteMetricSpace, element: PointMassElement
) -> TransportCertificate:
    """Norm of a finitely supported element with mutually verifying certificates."""
    plan, pi = _solve_flow(space, _balances(space, element))
    value = sum((m * space.d(s, t) for s, t, m in plan), Fraction(0))
    # the potentials are 1-Lipschitz and every leg is tight under them, so the
    # constant is exactly 1, or 0 when there is no leg and no search moved
    # them; recheck_certificate recomputes it
    shift = pi[space.base]
    dual = LipschitzFunction(
        values=tuple(p - shift for p in pi), lip_constant=Fraction(1 if plan else 0))
    cert = TransportCertificate(value=value, plan=plan, dual=dual)
    recheck_certificate(space, element, cert)
    return cert


def attains(space: FiniteMetricSpace, system: MoleculeSystem) -> bool:
    """True iff the family norm equals the total weight exactly."""
    cert = free_norm(space, to_point_masses(space, system))
    return cert.value == system.total_weight


def decompose_to_molecules(
    space: FiniteMetricSpace, element: PointMassElement
) -> MoleculeSystem:
    """Rewrite an element as a weighted molecule family attaining its norm.

    Pairs come from the optimal plan with weights mass * d(source, sink), so
    the total weight equals the norm and the family is cyclically monotone.
    """
    cert = free_norm(space, element)
    pairs = tuple((s, t) for s, t, _ in cert.plan)
    weights = tuple(m * space.d(s, t) for s, t, m in cert.plan)
    return MoleculeSystem(pairs=pairs, weights=weights)


def dual_objective(
    space: FiniteMetricSpace, element: PointMassElement, values
) -> Fraction:
    """Pairing of a function's value vector against element coefficients."""
    return sum((c * values[p] for p, c in element.coeffs.items()), Fraction(0))


def recheck_certificate(
    space: FiniteMetricSpace, element: PointMassElement, cert: TransportCertificate
) -> None:
    """Re-verify a transport certificate from raw inputs; raise on mismatch."""
    n = len(space)
    recheck_function(space, cert.dual, "dual function")
    out = [Fraction(0)] * n
    for leg in cert.plan:
        if not (type(leg) is tuple and len(leg) == 3 and is_exact(leg[2])):
            raise CertificateMismatchError("plan leg must be two int endpoints and an exact mass")
        s, t, m = leg
        if not (is_index(s, n) and is_index(t, n)) or s == t:
            raise CertificateMismatchError(
                f"plan leg endpoints invalid: need two int endpoints in range({n}) that differ")
        if m <= 0:
            raise CertificateMismatchError("plan leg mass must be positive")
        out[s] += m
        out[t] -= m
    balance = _balances(space, element)
    if out != balance:
        raise CertificateMismatchError("plan does not balance the element")
    cost = sum((m * space.d(s, t) for s, t, m in cert.plan), Fraction(0))
    if cost != cert.value:
        raise CertificateMismatchError(
            f"plan cost {cost} differs from stated value {cert.value}"
        )
    if cert.dual.values[space.base] != 0:
        raise CertificateMismatchError("dual function must vanish at the base")
    obj = dual_objective(space, element, cert.dual.values)
    if obj != cert.value:
        raise CertificateMismatchError(
            f"duality gap: dual objective {obj}, plan cost {cert.value}"
        )
