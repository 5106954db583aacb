"""Traced in-process replay of ``lipfree`` invocations, for per-layer numbers.

``replay`` runs one invocation as the same sequence of public library calls
its ``cli.cmd_*`` handler makes, and returns the exit code and the exact
stdout text, so the harness can require byte equality with the real process.
A ``Tracer`` records a span (name, start, end, parent, invocation) around
each of those calls, and ``patched`` also wraps the names one library module
imported from another (``differentiability.closure``, ...), so calls a layer
makes into another layer get spans as well. Nothing in ``src/`` changes:
the wrappers live in this file and are removed when the replay ends.

Counts are recorded at the same call boundaries. Span names are
``<module>.<function>``; ``LAYER_TIMES`` groups them into the reported
``*_s`` metrics.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import lipfree.differentiability as differentiability
import lipfree.molecules as molecules
import lipfree.norming as norming
import lipfree.potentials as potentials
import lipfree.serialization as serialization
import lipfree.transport as transport
from lipfree.cli import DEFAULT_MAX_POINTS
from lipfree.differentiability import NonUniqueOnN, NotAttaining, VerdictKind
from lipfree.errors import CertificateMismatchError
from lipfree.potentials import NegativeCycleWitness

from instances import denominator_bits

# (module, attribute) imported from another layer -> span name
PATCHES = [
    (serialization, "build_space", "metric.build_space"),
    (serialization, "build_system", "molecules.build_system"),
    (serialization, "element_from_coeffs", "molecules.element_from_coeffs"),
    (potentials, "beta_matrix", "molecules.beta_matrix"),
    (differentiability, "beta_matrix", "molecules.beta_matrix"),
    (differentiability, "closure", "potentials.closure"),
    (differentiability, "recheck_witness", "potentials.recheck_witness"),
    (differentiability, "build_on_N", "norming.build_on_N"),
    (differentiability, "extend_upper", "norming.extend_upper"),
]

# metric -> span names whose outermost spans are summed
LAYER_TIMES = {
    "metric.build_space_s": ("metric.build_space",),
    "molecules.beta_matrix_s": ("molecules.beta_matrix",),
    "molecules.to_point_masses_s": ("molecules.to_point_masses",),
    "potentials.closure_s": ("potentials.closure", "potentials.check_cyclical_monotonicity"),
    "potentials.recheck_witness_s": ("potentials.recheck_witness",),
    "transport.free_norm_s": ("transport.free_norm",),
    "norming.build_on_N_s": ("norming.build_on_N",),
    "norming.extend_s": ("norming.extend_upper", "norming.extend_lower"),
    "differentiability.decide_s": ("differentiability.decide",),
    "differentiability.recheck_verdict_s": ("differentiability.recheck_verdict",),
    "differentiability.gateaux_eps_s": ("differentiability.check_gateaux_eps",),
    "differentiability.coverage_prefix_s": ("differentiability.coverage_eps_prefix",),
    "differentiability.l1_check_s": ("differentiability.l1_basis_check",),
    "serialization.render_s": ("serialization.render",),
}
# self time: the build_* children are reported under metric and molecules
PARSE_SPANS = ("serialization.read", "serialization.load_space_doc",
               "serialization.load_system_doc", "serialization.load_element_doc")

COUNTS = (
    "metric.points", "metric.denominator_bits", "molecules.beta_matrix.calls",
    "potentials.closure.calls", "potentials.closure.witness", "transport.free_norm.calls",
    "transport.plan_legs", "differentiability.l1.orientations_tried",
    "differentiability.l1.orientations_total", "differentiability.branch.frechet",
    "differentiability.branch.not_attaining", "differentiability.branch.non_unique_on_n",
    "differentiability.branch.uncovered",
)


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return {"metric.denominator_bits": "bits", "transport.support_ratio": "1"}.get(
        metric, "count")


class Tracer:
    """Spans and counts of one replay round, kept in memory until written."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, invocation]
        self.stack: list[int] = []
        self.invocation: int | None = None
        self.counts = {name: 0 for name in COUNTS}
        self.support = 0  # sum of support + base over free_norm calls
        self.points = 0  # sum of n over free_norm calls
        self.l1_tried: dict[str, int] = {}  # per l1-check invocation

    @contextmanager
    def span(self, name: str):
        parent = self.stack[-1] if self.stack else None
        index = len(self.spans)
        record = [name, time.perf_counter(), None, parent, self.invocation]
        self.spans.append(record)
        self.stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self.stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            out = fn(*args, **kwargs)
        self._count(name, args, out)
        return out

    def _count(self, name, args, out) -> None:
        c = self.counts
        if name == "metric.build_space":
            c["metric.points"] += len(out)
            bits = denominator_bits(out.dist)
            c["metric.denominator_bits"] = max(c["metric.denominator_bits"], bits)
        elif name == "molecules.beta_matrix":
            c["molecules.beta_matrix.calls"] += 1
        elif name == "potentials.closure":
            c["potentials.closure.calls"] += 1
            c["potentials.closure.witness"] += isinstance(out, NegativeCycleWitness)
        elif name == "transport.free_norm":
            space, element = args
            c["transport.free_norm.calls"] += 1
            c["transport.plan_legs"] += len(out.plan)
            self.support += len(element.coeffs) + 1
            self.points += len(space)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    @contextmanager
    def patched(self):
        """Wrap every PATCHES name; a refactor that drops one fails here."""
        saved = [(mod, attr, name, getattr(mod, attr)) for mod, attr, name in PATCHES]
        try:
            for mod, attr, name, fn in saved:
                setattr(mod, attr, self.wrap(name, fn))
            yield self
        finally:
            for mod, attr, _, fn in saved:
                setattr(mod, attr, fn)

    def self_time(self, index: int) -> float:
        name, start, end, _, _ = self.spans[index]
        children = sum(s[2] - s[1] for s in self.spans if s[3] == index)
        return end - start - children

    def metrics(self) -> dict[str, float]:
        """Per-layer seconds and counts of everything recorded so far."""
        out = {}
        for metric, names in LAYER_TIMES.items():
            total = 0.0
            for name, start, end, parent, _ in self.spans:
                if name in names and not self._inside(parent, names):
                    total += end - start
            out[metric] = total
        out["serialization.parse_s"] = sum(
            self.self_time(i) for i, s in enumerate(self.spans) if s[0] in PARSE_SPANS)
        out.update(self.counts)
        out["transport.support_ratio"] = self.support / self.points if self.points else 0.0
        out["trace.replay_s"] = sum(s[2] - s[1] for s in self.spans if s[3] is None)
        return out

    def _inside(self, parent, names) -> bool:
        while parent is not None:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][3]
        return False

    def dump(self, path, keys) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"invocations": keys, "counts": self.counts,
                       "l1_orientations_tried": self.l1_tried,
                       "fields": ["name", "start", "end", "parent", "invocation"],
                       "spans": self.spans}, handle)


# ---------------------------------------------------------------- replay


def _load(T: Tracer, kind: str, path: str, *args):
    with T.span("serialization.read"):
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    loader = getattr(serialization, f"load_{kind}_doc")
    if kind == "space":
        return T.call("serialization.load_space_doc", loader, doc, *args)
    return T.call(f"serialization.load_{kind}_doc", loader, *args, doc)


def _render(T: Tracer, build) -> str:
    with T.span("serialization.render"):
        return serialization.dumps_canonical(build())


def replay(T: Tracer, inv, path_of, invocation: int) -> tuple[int, str]:
    """Replay one invocation; returns (exit code, stdout text)."""
    T.invocation = invocation
    with T.span(f"replay.{inv.cmd}"):
        return _REPLAYS[inv.cmd](T, inv, path_of)


def _space_and(T, inv, path_of, kind):
    space = _load(T, "space", path_of(inv.inst, "space"), DEFAULT_MAX_POINTS)
    doc_name = "element" if kind == "element" else inv.family
    return space, _load(T, kind, path_of(inv.inst, doc_name), space)


def _norm(T, inv, path_of):
    space, element = _space_and(T, inv, path_of, "element")
    cert = T.call("transport.free_norm", transport.free_norm, space, element)
    return 0, _render(T, lambda: serialization.certificate_to_doc(space, cert))


def _attains(T, inv, path_of):
    space, system = _space_and(T, inv, path_of, "system")
    element = T.call("molecules.to_point_masses", molecules.to_point_masses, space, system)
    cert = T.call("transport.free_norm", transport.free_norm, space, element)
    attained = cert.value == system.total_weight
    verdict = T.call("potentials.check_cyclical_monotonicity",
                     potentials.check_cyclical_monotonicity, space, system.pairs)
    if attained == (not verdict.holds):
        raise CertificateMismatchError("norm attainment and cyclical monotonicity disagree")
    if not attained:
        beta = T.call("molecules.beta_matrix", molecules.beta_matrix, space, system.pairs)
        T.call("potentials.recheck_witness", potentials.recheck_witness, beta, verdict.witness)

    def build():
        report = {
            "attains": attained,
            "norm": serialization.render_rational(cert.value),
            "total_weight": serialization.render_rational(system.total_weight),
        }
        if not attained:
            report["witness"] = serialization.witness_to_doc(space, system.pairs, verdict.witness)
        return report
    return (0 if attained else 1), _render(T, build)


def _potentials(T, inv, path_of):
    space, system = _space_and(T, inv, path_of, "system")
    beta = T.call("molecules.beta_matrix", molecules.beta_matrix, space, system.pairs)
    result = T.call("potentials.closure", potentials.closure, beta)
    if isinstance(result, NegativeCycleWitness):
        T.call("potentials.recheck_witness", potentials.recheck_witness, beta, result)
        return 1, _render(T, lambda: {
            "holds": False, "witness": serialization.witness_to_doc(space, system.pairs, result)})
    return 0, _render(T, lambda: {"holds": True, **serialization.table_to_doc(result)})


def _norming(T, inv, path_of):
    space, system = _space_and(T, inv, path_of, "system")
    beta = T.call("molecules.beta_matrix", molecules.beta_matrix, space, system.pairs)
    result = T.call("potentials.closure", potentials.closure, beta)
    if isinstance(result, NegativeCycleWitness):
        beta = T.call("molecules.beta_matrix", molecules.beta_matrix, space, system.pairs)
        T.call("potentials.recheck_witness", potentials.recheck_witness, beta, result)
        return 1, _render(T, lambda: {
            "holds": False, "witness": serialization.witness_to_doc(space, system.pairs, result)})
    partial = T.call("norming.build_on_N", norming.build_on_N, space, system.pairs, result)
    upper = T.call("norming.extend_upper", norming.extend_upper, space, partial)
    lower = T.call("norming.extend_lower", norming.extend_lower, space, partial)
    return 0, _render(T, lambda: {
        "holds": True,
        "partial": serialization.partial_to_doc(space, partial),
        "upper": serialization.function_to_doc(space, upper),
        "lower": serialization.function_to_doc(space, lower),
    })


def _gateaux_eps(T, inv, path_of):
    space, system = _space_and(T, inv, path_of, "system")
    eps = serialization.parse_rational(inv.eps, "eps")
    report = T.call("differentiability.check_gateaux_eps",
                    differentiability.check_gateaux_eps, space, system, eps)
    labels = space.labels
    R = serialization.render_rational
    text = _render(T, lambda: {
        "eps": R(eps),
        "cond_i_failures": [list(p) for p in report.cond_i],
        "cond_ii_failures": {
            labels[p]: {"s": labels[s], "t": labels[t], "slack": R(slack)}
            for p, (s, t, slack) in sorted(report.cond_ii.items())
        },
        "satisfied": report.satisfied,
    })
    return (0 if report.satisfied else 1), text


def _decide(T, inv, path_of):
    space, system = _space_and(T, inv, path_of, "system")
    verdict = T.call("differentiability.decide", differentiability.decide, space, system)
    T.call("differentiability.recheck_verdict", differentiability.recheck_verdict,
           space, system, verdict)
    labels = space.labels
    failure = verdict.failure
    if verdict.kind is VerdictKind.FRECHET:
        T.counts["differentiability.branch.frechet"] += 1
        return 0, _render(T, lambda: {
            "kind": "frechet",
            "norming": serialization.function_to_doc(space, verdict.norming),
            "coverage": {labels[p]: [labels[s], labels[t]]
                         for p, (s, t) in sorted(verdict.coverage.items())},
        })
    if isinstance(failure, NotAttaining):
        T.counts["differentiability.branch.not_attaining"] += 1
        build = lambda: {"kind": "not_attaining", "witness": serialization.witness_to_doc(
            space, system.pairs, failure.witness)}
    elif isinstance(failure, NonUniqueOnN):
        T.counts["differentiability.branch.non_unique_on_n"] += 1
        build = lambda: {"kind": "non_unique_on_n", "pair": list(failure.pair)}
    else:
        T.counts["differentiability.branch.uncovered"] += 1
        beta = T.call("molecules.beta_matrix", molecules.beta_matrix, space, system.pairs)
        table = T.call("potentials.closure", potentials.closure, beta)
        partial = T.call("norming.build_on_N", norming.build_on_N, space, system.pairs, table)
        upper = T.call("norming.extend_upper", norming.extend_upper, space, partial)
        lower = T.call("norming.extend_lower", norming.extend_lower, space, partial)
        gap = upper.values[failure.point] - lower.values[failure.point]
        build = lambda: {"kind": "uncovered", "point": labels[failure.point],
                         "extension_gap": serialization.render_rational(gap)}
    return 1, _render(T, lambda: {"kind": "not_gateaux", "failure": build()})


def _coverage_prefix(T, inv, path_of):
    space, system = _space_and(T, inv, path_of, "system")
    eps = serialization.parse_rational(inv.eps, "eps")
    prefix = T.call("differentiability.coverage_eps_prefix",
                    differentiability.coverage_eps_prefix, space, system, eps)
    text = _render(T, lambda: {"eps": serialization.render_rational(eps), "prefix": prefix})
    return (0 if prefix is not None else 1), text


def _l1_check(T, inv, path_of):
    space = _load(T, "space", path_of(inv.inst, "space"), DEFAULT_MAX_POINTS)
    with T.span("serialization.read"):
        with open(path_of(inv.inst, inv.family), "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    pairs = [(space.index(str(x)), space.index(str(y))) for x, y in doc["pairs"]]
    closures = T.counts["potentials.closure.calls"]
    verdict = T.call("differentiability.l1_basis_check",
                     differentiability.l1_basis_check, space, pairs)
    # one closure per orientation tried, whatever order the walk takes
    tried = T.counts["potentials.closure.calls"] - closures
    total = 2 ** (len(pairs) - 1)  # the first pair's orientation is fixed
    if not 1 <= tried <= total:
        raise RuntimeError(f"l1_basis_check made {tried} closure calls for {total} "
                           "orientations; count the orientations where the walk tests them")
    T.counts["differentiability.l1.orientations_total"] += total
    T.counts["differentiability.l1.orientations_tried"] += tried
    T.l1_tried[inv.key] = tried
    if verdict.isometric:
        return 0, _render(T, lambda: {"isometric_l1": True})
    oriented = [(y, x) if flip else (x, y) for (x, y), flip in zip(pairs, verdict.orientation)]
    beta = T.call("molecules.beta_matrix", molecules.beta_matrix, space, oriented)
    T.call("potentials.recheck_witness", potentials.recheck_witness, beta, verdict.witness)
    return 1, _render(T, lambda: {
        "isometric_l1": False,
        "orientation": list(verdict.orientation),
        "witness": serialization.witness_to_doc(space, oriented, verdict.witness),
    })


_REPLAYS = {
    "norm": _norm,
    "attains": _attains,
    "potentials": _potentials,
    "norming": _norming,
    "gateaux-eps": _gateaux_eps,
    "decide": _decide,
    "coverage-prefix": _coverage_prefix,
    "l1-check": _l1_check,
}
