"""Seeded instance generation for the benchmark, stdlib only.

Nothing here imports ``lipfree``: the workloads are pinned by this file, so a
change to ``lipfree.generators`` cannot move them. Every random draw comes
from ``random.Random`` seeded with a string, which is stable across runs and
Python processes.

Each workload function returns the instances (a space and its documents) and
the list of invocations that make one round of the closed loop. Why each
workload exists:

- norm-dense: ``transport`` does about 85 % of the in-process work and
  ``metric.build_space`` the rest; there is no closure and no coverage. Full
  support leaves a support-only transport nothing to drop, so this is that
  change's no-change control, and the main target of an integer-scaled
  Dijkstra.
- family-mix: closure on 31-pair systems and on negative systems, the
  coverage loops and the extensions; all four ``decide`` branches run.
  ``transport`` runs only through ``attains`` on small supports. The many
  short negative verdicts keep process start-up visible.
- orient-l1: hundreds of closures and beta builds on 10x10 matrices, with
  early exits at three depths; a Gray-code walk shows here, and so does a
  conversion cost paid on every call.

Every workload uses one instance size, so medians stay inside one cluster of
similar invocations.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction

DEN_CAP = 20  # bound on the denominators of drawn distances and coefficients
EPS = "1/8"


def _rng(seed: int, *tag) -> random.Random:
    return random.Random(":".join(str(t) for t in (seed, *tag)))


def render(value: Fraction):
    value = Fraction(value)
    return int(value) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


# ---------------------------------------------------------------- metrics


def random_metric(rng: random.Random, n: int) -> list[list[Fraction]]:
    """Random symmetric draw repaired to a metric by exact shortest paths.

    Entries are rationals in (0, 6] with denominator at most DEN_CAP. The
    repair runs Floyd-Warshall on integers over the common denominator
    lcm(1..DEN_CAP), so it is exact and cheap.
    """
    scale = math.lcm(*range(1, DEN_CAP + 1))
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            den = rng.randint(1, DEN_CAP)
            m[i][j] = m[j][i] = rng.randint(1, 6 * den) * (scale // den)
    for k in range(n):
        mk = m[k]
        for i in range(n):
            mik = m[i][k]
            mi = m[i]
            for j in range(n):
                if mik + mk[j] < mi[j]:
                    mi[j] = mik + mk[j]
    return [[Fraction(x, scale) for x in row] for row in m]


def plant_midpoints(rng: random.Random, dist: list[list[Fraction]], count: int) -> None:
    """Append ``count`` points, each exactly halfway between two existing ones.

    The new point hangs on a fresh edge u - m - v of length d(u, v), so the
    graph metric keeps every old distance and m lies on the segment [u, v].
    Exact segment equalities like this are what the coverage checks branch on.
    """
    for _ in range(count):
        n = len(dist)
        u, v = rng.sample(range(n), 2)
        half = dist[u][v] / 2
        row = [half + min(dist[u][w], dist[v][w]) for w in range(n)]
        row[u] = row[v] = half
        for w in range(n):
            dist[w].append(row[w])
        dist.append(row + [Fraction(0)])


def star(k: int, short: tuple[int, int] | None = None) -> list[list[Fraction]]:
    """Base 0 with k satellites: d(p, 0) = 1, d(p, q) = 2, one pair optionally 3/2."""
    dist = [
        [Fraction(0 if i == j else (1 if 0 in (i, j) else 2)) for j in range(k + 1)]
        for i in range(k + 1)
    ]
    if short is not None:
        a, b = short
        dist[a][b] = dist[b][a] = Fraction(3, 2)
    return dist


def denominator_bits(dist) -> int:
    return math.lcm(*(x.denominator for row in dist for x in row)).bit_length()


# ---------------------------------------------------------------- documents


class Space:
    """A generated space: exact matrix, labels, base index and its document."""

    def __init__(self, dist, labels, base):
        self.dist = dist
        self.labels = labels
        self.base = base
        self.doc = {
            "labels": labels,
            "base": labels[base],
            "dist": [[render(x) for x in row] for row in dist],
        }

    def d(self, i, j) -> Fraction:
        return self.dist[i][j]

    def nonbase(self) -> list[int]:
        return [p for p in range(len(self.labels)) if p != self.base]


def shuffled_space(rng: random.Random, dist, base: int = 0) -> tuple[Space, list[int]]:
    """Relabel with seeded label strings and a seeded row order.

    Returns the space and ``new``, where ``new[p]`` is the index in the space
    of point ``p`` of ``dist``.
    """
    n = len(dist)
    order = list(range(n))
    rng.shuffle(order)  # row i of the space is point order[i] of dist
    names = rng.sample(range(10 * n), n)
    permuted = [[dist[order[i]][order[j]] for j in range(n)] for i in range(n)]
    new = [0] * n
    for i, p in enumerate(order):
        new[p] = i
    return Space(permuted, [f"p{k}" for k in names], new[base]), new


def system_doc(space: Space, pairs, weights) -> dict:
    return {
        "pairs": [[space.labels[x], space.labels[y]] for x, y in pairs],
        "weights": [render(w) for w in weights],
    }


def normalized_weights(rng: random.Random, m: int) -> list[Fraction]:
    raw = [rng.randint(1, DEN_CAP) for _ in range(m)]
    total = sum(raw)
    return [Fraction(r, total) for r in raw]


def encode(doc) -> bytes:
    """The bytes written to a document file; their sha256 identifies the input."""
    return json.dumps(doc, sort_keys=True).encode()


def sha256(doc) -> str:
    return hashlib.sha256(encode(doc)).hexdigest()


# ---------------------------------------------------------------- families


def closure(space: Space, pairs):
    """Shortest-path closure of beta[j][k] = d(x_j, y_k) - d(x_j, y_j), exactly.

    None when beta has a negative cycle, that is when the family does not
    attain its norm.
    """
    B = [[space.d(xj, yk) - space.d(xj, yj) for (_, yk) in pairs] for (xj, yj) in pairs]
    m = len(B)
    for k in range(m):
        Bk = B[k]
        for i in range(m):
            Bik, Bi = B[i][k], B[i]
            for j in range(m):
                if Bik + Bk[j] < Bi[j]:
                    Bi[j] = Bik + Bk[j]
    if any(B[i][i] < 0 for i in range(m)):
        return None
    return B


def anchored_uncovered(space: Space, points) -> bool:
    """Whether the anchored family {(p, base) : p in points} leaves a point uncovered.

    Its norming values on N are f = d(., base), so a tight pair (s, t) has s on
    the segment [base, t], and a point on [s, t] is then on [base, t] too: the
    point p is covered iff d(base, p) + d(p, t) = d(base, t) for some t in N.
    """
    b = space.base
    return any(
        all(space.d(b, p) + space.d(p, t) != space.d(b, t) for t in points)
        for p in range(len(space.labels))
    )


class Instance:
    """One space and the documents built on it.

    ``families`` maps a family name to ``(pairs, weights)`` in space indices;
    ``element`` maps point indices to coefficients; ``isometric_l1`` is the
    ``l1-check`` verdict the construction fixes, where it fixes one.
    """

    def __init__(self, name: str, space: Space):
        self.name = name
        self.space = space
        self.families: dict[str, tuple[list, list]] = {}
        self.element: dict[int, Fraction] | None = None
        self.isometric_l1: bool | None = None

    def docs(self) -> dict[str, dict]:
        out = {"space": self.space.doc}
        for fam, (pairs, weights) in self.families.items():
            out[fam] = system_doc(self.space, pairs, weights)
        if self.element is not None:
            out["element"] = {
                "coeffs": {self.space.labels[p]: render(c) for p, c in self.element.items()}
            }
        return out


class Invocation:
    """One ``lipfree <cmd>`` process: ``doc_args`` maps flags to document names."""

    def __init__(self, inst: Instance, cmd: str, doc_args: dict, family=None, eps=None):
        self.inst = inst
        self.cmd = cmd
        self.doc_args = doc_args
        self.family = family
        self.eps = eps
        self.key = "/".join(x for x in (inst.name, family, cmd) if x)

    def argv(self, path_of) -> list[str]:
        out = [self.cmd]
        for flag, doc in self.doc_args.items():
            out += [flag, path_of(self.inst, doc)]
        if self.eps is not None:
            out += ["--eps", self.eps]
        return out


def _nonzero_rational(rng: random.Random) -> Fraction:
    den = rng.randint(1, DEN_CAP)
    num = rng.choice([-1, 1]) * rng.randint(1, 3 * den)
    return Fraction(num, den)


def norm_dense(seed: int, n: int = 40, count: int = 4):
    """Generic random spaces, each with a dense element: one ``norm`` apiece."""
    insts, invs = [], []
    for i in range(count):
        rng = _rng(seed, "norm-dense", i)
        space, _ = shuffled_space(rng, random_metric(rng, n))
        inst = Instance(f"s{i}", space)
        inst.element = {p: _nonzero_rational(rng) for p in space.nonbase()}
        insts.append(inst)
        invs.append(Invocation(inst, "norm", {"--space": "space", "--element": "element"}))
    return insts, invs


def _draw(rng: random.Random, make, accept, what: str, tries: int = 1000):
    for _ in range(tries):
        value = make()
        if accept(value):
            return value
    raise RuntimeError(f"no {what} found in {tries} seeded draws")


FAMILY_COMMANDS = {
    "anchored": ("decide", "potentials", "norming", "gateaux-eps", "coverage-prefix"),
    "half": ("decide", "gateaux-eps", "coverage-prefix"),
    "two-pair": ("decide", "attains", "potentials"),
    "random": ("decide", "attains", "potentials"),
}


def family_mix(seed: int, n: int = 32, count: int = 1):
    """Near-degenerate spaces, each with the four normalized families.

    anchored  every non-base point paired with the base: Frechet.
    half      a random half of those pairs, drawn until a point is uncovered.
    two-pair  (a, b), (c, d) with d(a,d) + d(c,b) > d(a,b) + d(c,d): the only
              cycle is positive, so the family attains and {0, 1} is not rigid.
    random    5 random pairs, drawn until beta has a negative cycle.
    """
    insts, invs = [], []
    for i in range(count):
        rng = _rng(seed, "family-mix", i)
        dist = random_metric(rng, n - n // 4)
        plant_midpoints(rng, dist, n // 4)
        space, _ = shuffled_space(rng, dist)
        inst = Instance(f"s{i}", space)
        base, nb = space.base, space.nonbase()
        d = space.d

        order = rng.sample(nb, len(nb))
        inst.families["anchored"] = (
            [(p, base) for p in order], normalized_weights(rng, len(order)))
        half = _draw(rng, lambda: rng.sample(nb, len(nb) // 2),
                     lambda pts: anchored_uncovered(space, pts), "uncovered half")
        inst.families["half"] = ([(p, base) for p in half], normalized_weights(rng, len(half)))
        a, b, c, e = _draw(rng, lambda: rng.sample(nb, 4),
                           lambda q: d(q[0], q[3]) + d(q[2], q[1]) > d(q[0], q[1]) + d(q[2], q[3]),
                           "non-rigid two-pair family")
        inst.families["two-pair"] = ([(a, b), (c, e)], normalized_weights(rng, 2))
        pts = range(len(nb) + 1)
        rand = _draw(rng, lambda: [tuple(rng.sample(pts, 2)) for _ in range(5)],
                     lambda ps: len(set(ps)) == 5 and closure(space, ps) is None,
                     "non-attaining random family")
        inst.families["random"] = (rand, normalized_weights(rng, 5))
        insts.append(inst)
        for fam, cmds in FAMILY_COMMANDS.items():
            for cmd in cmds:
                eps = EPS if cmd in ("gateaux-eps", "coverage-prefix") else None
                invs.append(Invocation(inst, cmd, {"--space": "space", "--system": fam},
                                       family=fam, eps=eps))
    return insts, invs


STARS = (("plain", None), ("short12", (1, 2)), ("short13", (1, 3)))


def orient_l1(seed: int, k: int = 10):
    """Stars with the k anchored pairs (p, 0), p = 1..k, in that order.

    The seed only relabels and reorders the points; the pair order, and so
    the first failing orientation, is fixed by the construction.
    """
    insts, invs = [], []
    for name, short in STARS:
        rng = _rng(seed, "orient-l1", name)
        space, new = shuffled_space(rng, star(k, short))
        inst = Instance(name, space)
        inst.families["anchored"] = (
            [(new[p], new[0]) for p in range(1, k + 1)], [Fraction(1, k)] * k)
        inst.isometric_l1 = short is None
        insts.append(inst)
        invs.append(Invocation(inst, "l1-check", {"--space": "space", "--system": "anchored"},
                               family="anchored"))
    return insts, invs


WORKLOADS = {"norm-dense": norm_dense, "family-mix": family_mix, "orient-l1": orient_l1}
