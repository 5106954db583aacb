"""Re-checks of every ``lipfree`` report against the raw generated inputs.

``check(inv, code, report)`` returns the invocation's verdict values, the
mathematically unique part of its report, or raises ``CheckFailed``. The
checks use the harness's own exact arithmetic wherever it is cheap, and the
library's public re-checkers (``recheck_witness``, ``recheck_verdict``) for
witnesses and Frechet certificates, always on objects rebuilt from the raw
inputs and the report, never on the program's own intermediate results.
"""

from __future__ import annotations

from fractions import Fraction

from lipfree.differentiability import (
    DiffVerdict,
    NonUniqueOnN,
    NotAttaining,
    Uncovered,
    VerdictKind,
    recheck_verdict,
)
from lipfree.errors import LipfreeError
from lipfree.metric import FiniteMetricSpace
from lipfree.molecules import MoleculeSystem, beta_matrix
from lipfree.norming import make_function
from lipfree.potentials import NegativeCycleWitness, recheck_witness

from instances import closure


class CheckFailed(Exception):
    """A report that does not hold up against the raw inputs."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def rat(value) -> Fraction:
    require(isinstance(value, (int, str)) and not isinstance(value, bool),
            f"bad rational {value!r}")
    return Fraction(value)


def lib_space(space) -> FiniteMetricSpace:
    return FiniteMetricSpace(labels=tuple(space.labels), base=space.base,
                             dist=tuple(tuple(row) for row in space.dist))


def values_on_N(space, pairs, B) -> dict[int, Fraction]:
    """f(y_j) = B[j][0], f(x_j) = f(y_j) + d(x_j, y_j), shifted to vanish at the base."""
    f = {}
    for j, (x, y) in enumerate(pairs):
        f[y] = B[j][0]
        f[x] = B[j][0] + space.d(x, y)
    shift = f.get(space.base, Fraction(0))
    return {p: v - shift for p, v in f.items()}


def function_values(space, doc) -> list[Fraction]:
    values = doc["values"]
    require(set(values) == set(space.labels), "function must cover every label")
    return [rat(values[label]) for label in space.labels]


def lip_constant(space, f) -> Fraction:
    n = len(f)
    return max((abs(f[p] - f[q]) / space.d(p, q) for p in range(n) for q in range(p + 1, n)),
               default=Fraction(0))


def check_function_doc(space, doc) -> list[Fraction]:
    f = function_values(space, doc)
    lip = lip_constant(space, f)
    require(lip <= 1, f"function has Lipschitz constant {lip} > 1")
    require(rat(doc["lip"]) == lip, "stated Lipschitz constant is wrong")
    require(doc["base_pinned"] == (f[space.base] == 0), "base_pinned flag is wrong")
    return f


def check_witness(space, pairs, doc) -> None:
    cycle = doc["cycle"]
    require(isinstance(cycle, list) and all(type(i) is int for i in cycle), "bad witness cycle")
    require(len(cycle) >= 2 and len(set(cycle)) == len(cycle), "witness indices must be distinct")
    require(all(0 <= i < len(pairs) for i in cycle), "witness index out of range")
    total = rat(doc["sum"])
    aligned = sum((space.d(*pairs[i]) for i in cycle), Fraction(0))
    cross = sum((space.d(pairs[cycle[i]][0], pairs[cycle[(i + 1) % len(cycle)]][1])
                 for i in range(len(cycle))), Fraction(0))
    require(rat(doc["aligned_sum"]) == aligned and rat(doc["cross_sum"]) == cross,
            "witness sides are wrong")
    require(total == cross - aligned < 0, "witness sum is not the negative cycle sum")
    try:
        recheck_witness(beta_matrix(lib_space(space), pairs),
                        NegativeCycleWitness(cycle=tuple(cycle), sum=total))
    except LipfreeError as err:
        raise CheckFailed(f"recheck_witness: {err}") from None


def expect_code(code: int, positive: bool) -> None:
    require(code == (0 if positive else 1), f"exit code {code} does not match the verdict")


# ---------------------------------------------------------------- per command


def check_norm(inv, code, report):
    space, element = inv.inst.space, inv.inst.element
    expect_code(code, True)
    value = rat(report["value"])
    index = {label: i for i, label in enumerate(space.labels)}
    balance = [Fraction(0)] * len(space.labels)
    cost = Fraction(0)
    for s, t, m in report["plan"]:
        s, t, m = index[s], index[t], rat(m)
        require(s != t and m > 0, "plan leg is degenerate")
        balance[s] += m
        balance[t] -= m
        cost += m * space.d(s, t)
    want = [element.get(p, Fraction(0)) for p in range(len(space.labels))]
    want[space.base] = -sum(element.values())
    require(balance == want, "plan does not balance the element")
    require(cost == value, f"plan cost {cost} differs from value {value}")
    f = check_function_doc(space, report["dual"])
    require(f[space.base] == 0, "dual must vanish at the base")
    obj = sum((c * f[p] for p, c in element.items()), Fraction(0))
    require(obj == value, f"dual objective {obj} differs from value {value}")
    return {"value": report["value"]}


def check_attains(inv, code, report):
    space, (pairs, weights) = inv.inst.space, inv.inst.families[inv.family]
    attains = report["attains"]
    expect_code(code, attains)
    total = sum(weights, Fraction(0))
    require(rat(report["total_weight"]) == total, "total weight is wrong")
    require((rat(report["norm"]) == total) == attains, "attains flag contradicts the norm")
    require(rat(report["norm"]) <= total, "norm exceeds the total weight")
    require(attains == (closure(space, pairs) is not None), "attains contradicts cycle check")
    if not attains:
        check_witness(space, pairs, report["witness"])
    return {"attains": attains, "norm": report["norm"]}


def check_potentials(inv, code, report):
    space, (pairs, _) = inv.inst.space, inv.inst.families[inv.family]
    B = closure(space, pairs)
    holds = report["holds"]
    expect_code(code, holds)
    require(holds == (B is not None), "holds contradicts the cycle check")
    if not holds:
        check_witness(space, pairs, report["witness"])
        return {"holds": False}
    m = len(pairs)
    require([[rat(x) for x in row] for row in report["B"]] == B, "B is not the closure of beta")
    require([rat(a) for a in report["alphas"]] == [B[j][0] for j in range(m)], "alphas are wrong")
    rigid = [[j, k] for j in range(m) for k in range(j + 1, m) if B[j][k] + B[k][j] == 0]
    require(report["rigid_pairs"] == rigid, "rigid pairs are wrong")
    require(report["globally_unique"] == (len(rigid) == m * (m - 1) // 2), "uniqueness flag")
    return {"holds": True}


def check_norming(inv, code, report):
    space, (pairs, _) = inv.inst.space, inv.inst.families[inv.family]
    B = closure(space, pairs)
    holds = report["holds"]
    expect_code(code, holds)
    require(holds == (B is not None), "holds contradicts the cycle check")
    if not holds:
        check_witness(space, pairs, report["witness"])
        return {"holds": False}
    f = values_on_N(space, pairs, B)
    labels = space.labels
    got = {labels.index(k): rat(v) for k, v in report["partial"]["values"].items()}
    require(got == f, "norming values on N are wrong")
    points = range(len(labels))
    upper = [min(f[p] + space.d(p, x) for p in f) for x in points]
    lower = [max(f[p] - space.d(p, x) for p in f) for x in points]
    require(check_function_doc(space, report["upper"]) == upper, "upper extension is wrong")
    require(check_function_doc(space, report["lower"]) == lower, "lower extension is wrong")
    return {"holds": True}


def check_decide(inv, code, report):
    space, (pairs, weights) = inv.inst.space, inv.inst.families[inv.family]
    lib = lib_space(space)
    system = MoleculeSystem(pairs=tuple(pairs), weights=tuple(weights))
    B = closure(space, pairs)
    labels = space.labels
    if report["kind"] == "frechet":
        expect_code(code, True)
        f = check_function_doc(space, report["norming"])
        coverage = {labels.index(p): (labels.index(s), labels.index(t))
                    for p, (s, t) in report["coverage"].items()}
        verdict = DiffVerdict(kind=VerdictKind.FRECHET, norming=make_function(lib, f),
                              coverage=coverage)
        kind = "frechet"
    else:
        expect_code(code, False)
        require(report["kind"] == "not_gateaux", f"unknown kind {report['kind']!r}")
        detail = report["failure"]
        kind = detail["kind"]
        if kind == "not_attaining":
            check_witness(space, pairs, detail["witness"])
            failure = NotAttaining(NegativeCycleWitness(tuple(detail["witness"]["cycle"]),
                                                        rat(detail["witness"]["sum"])))
        elif kind == "non_unique_on_n":
            failure = NonUniqueOnN(tuple(detail["pair"]))
        elif kind == "uncovered":
            failure = Uncovered(labels.index(detail["point"]))
        else:
            raise CheckFailed(f"unknown failure kind {kind!r}")
        verdict = DiffVerdict(kind=VerdictKind.NOT_GATEAUX, failure=failure)
    # decide tests attainment, then rigidity, then coverage
    require((kind == "not_attaining") == (B is None), "attainment branch contradicts cycle check")
    if B is not None:
        m = len(pairs)
        rigid = all(B[j][k] + B[k][j] == 0 for j in range(m) for k in range(j + 1, m))
        require((kind == "non_unique_on_n") == (not rigid), "rigidity branch is wrong")
    try:
        recheck_verdict(lib, system, verdict)
    except LipfreeError as err:
        raise CheckFailed(f"recheck_verdict: {err}") from None
    return {"kind": kind}


def _slack(space, f, s, t, p) -> Fraction:
    return max(space.d(s, p) + space.d(t, p) - space.d(s, t), space.d(t, s) - (f[t] - f[s]))


def _min_slack_unless_covered(space, f, N, p, eps) -> Fraction | None:
    best = None
    for s in N:
        for t in N:
            if s != t:
                slack = _slack(space, f, s, t, p)
                if slack < eps:
                    return None
                best = slack if best is None else min(best, slack)
    return best


def check_gateaux_eps(inv, code, report):
    space, (pairs, _) = inv.inst.space, inv.inst.families[inv.family]
    eps = Fraction(inv.eps)
    require(rat(report["eps"]) == eps, "eps echoed wrongly")
    B = closure(space, pairs)
    require(B is not None, "gateaux-eps ran on a family that does not attain")
    m = len(pairs)
    cond_i = [[j, k] for j in range(m) for k in range(j + 1, m) if B[j][k] + B[k][j] >= eps]
    require(report["cond_i_failures"] == cond_i, "cond_i failures are wrong")
    f = values_on_N(space, pairs, B)
    N = sorted(f)
    labels = space.labels
    failing = {}
    for p in range(len(labels)):
        slack = _min_slack_unless_covered(space, f, N, p, eps)
        if slack is not None:
            failing[labels[p]] = slack
    reported = report["cond_ii_failures"]
    require(set(reported) == set(failing), "cond_ii failure points are wrong")
    for label, entry in reported.items():
        s, t = labels.index(entry["s"]), labels.index(entry["t"])
        slack = rat(entry["slack"])
        require(slack == failing[label] == _slack(space, f, s, t, labels.index(label)),
                f"cond_ii slack of {label} is wrong")
    satisfied = report["satisfied"]
    require(satisfied == (not cond_i and not failing), "satisfied flag is wrong")
    expect_code(code, satisfied)
    return {"satisfied": satisfied}


def _eps_covers(space, f, pairs, upto, eps) -> bool:
    pts = sorted({p for pair in pairs[:upto] for p in pair})
    eligible = [(s, t) for s in pts for t in pts if s != t and f[s] - f[t] > space.d(s, t) - eps]
    return all(any(space.d(s, p) + space.d(t, p) < space.d(s, t) + eps for s, t in eligible)
               for p in range(len(space.labels)))


def check_coverage_prefix(inv, code, report):
    space, (pairs, _) = inv.inst.space, inv.inst.families[inv.family]
    eps = Fraction(inv.eps)
    require(rat(report["eps"]) == eps, "eps echoed wrongly")
    B = closure(space, pairs)
    require(B is not None, "coverage-prefix ran on a family that does not attain")
    f = values_on_N(space, pairs, B)
    prefix = report["prefix"]
    expect_code(code, prefix is not None)
    if prefix is None:
        require(not _eps_covers(space, f, pairs, len(pairs), eps), "full family covers")
    else:
        require(type(prefix) is int and 1 <= prefix <= len(pairs), "prefix out of range")
        # eligibility does not depend on the prefix, so coverage grows with it
        require(_eps_covers(space, f, pairs, prefix, eps), "prefix does not cover")
        require(prefix == 1 or not _eps_covers(space, f, pairs, prefix - 1, eps),
                "a shorter prefix covers")
    return {"prefix": prefix}


def check_l1(inv, code, report):
    space, (pairs, _) = inv.inst.space, inv.inst.families[inv.family]
    iso = report["isometric_l1"]
    expect_code(code, iso)
    # an isometric verdict has no certificate, so hold it to the construction
    require(iso is inv.inst.isometric_l1,
            f"isometric_l1 {iso}, the construction gives {inv.inst.isometric_l1}")
    if iso:
        return {"isometric_l1": True}
    orientation = report["orientation"]
    require(len(orientation) == len(pairs) and orientation[0] is False, "bad orientation")
    oriented = [(y, x) if flip else (x, y) for (x, y), flip in zip(pairs, orientation)]
    require(closure(space, oriented) is None, "reported orientation has no negative cycle")
    check_witness(space, oriented, report["witness"])
    return {"isometric_l1": False}


CHECKS = {
    "norm": check_norm,
    "attains": check_attains,
    "potentials": check_potentials,
    "norming": check_norming,
    "decide": check_decide,
    "gateaux-eps": check_gateaux_eps,
    "coverage-prefix": check_coverage_prefix,
    "l1-check": check_l1,
}


def check(inv, code: int, report: dict) -> dict:
    """Verdict values of one report; raises CheckFailed when it does not hold up."""
    try:
        return CHECKS[inv.cmd](inv, code, report)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as err:
        raise CheckFailed(f"malformed report: {type(err).__name__}: {err}") from None


def agree(family_values: list[tuple[str, dict]]) -> None:
    """attains, potentials/norming holds and decide != not_attaining must agree."""
    seen = set()
    for cmd, values in family_values:
        if cmd == "attains":
            seen.add(values["attains"])
        elif cmd in ("potentials", "norming"):
            seen.add(values["holds"])
        elif cmd == "decide":
            seen.add(values["kind"] != "not_attaining")
    require(len(seen) <= 1, f"commands disagree on attainment: {family_values}")
