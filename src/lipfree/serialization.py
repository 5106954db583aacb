"""JSON document schemas with canonical exact-rational encoding.

Rationals travel as JSON integers or strings "p/q" in lowest terms with
positive denominator; no float survives parsing and none is ever emitted.
Document shapes:

    space    {"labels": [...], "base": "<label>", "dist": [[...]]}
    system   {"pairs": [["a", "0"], ...], "weights": [...], "total_weight": "p/q"}
    element  {"coeffs": {"<label>": "p/q", ...}}
    function {"values": {"<label>": "p/q", ...}, "lip": "p/q", "base_pinned": true}

Each loader refuses a key outside the keys lipfree itself prints for that
kind of document, so a misspelt key is an input error, not a key ignored.
The derived keys ``total_weight``, ``lip`` and ``base_pinned`` are optional,
and where present must equal the values recomputed from the document.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import InputError, any_digits, exact
from .metric import FiniteMetricSpace, build_space
from .molecules import (
    MoleculeSystem,
    Pair,
    PointMassElement,
    build_system,
    element_from_coeffs,
)
from .norming import LipschitzFunction, PartialFunction, make_function

if TYPE_CHECKING:
    from .potentials import NegativeCycleWitness, PotentialTable
    from .transport import TransportCertificate

_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")

SPACE_KEYS = ("labels", "base", "dist")
SYSTEM_KEYS = ("pairs", "weights", "total_weight")
ELEMENT_KEYS = ("coeffs",)
FUNCTION_KEYS = ("values", "lip", "base_pinned")


def parse_rational(value, where: str = "value") -> Fraction:
    """Parse an integer or an ASCII ``-?[0-9]+(/[0-9]+)?`` string into a Fraction.

    Nothing else is accepted: no sign other than a leading minus, no spaces,
    no digit separators and no non-ASCII digits.
    """
    if isinstance(value, bool):
        raise InputError(f"{where}: booleans are not rationals")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        match = _RATIONAL.fullmatch(value)
        if match is None:
            raise InputError(f"{where}: cannot parse rational {value!r}")
        num, den = match.groups()
        try:
            if den is None:
                return Fraction(int(num))
            num, den = int(num), int(den)
        except ValueError:  # more digits than int() converts
            raise InputError(f"{where}: rational has too many digits") from None
        if den == 0:
            raise InputError(f"{where}: denominator must be positive in {value!r}")
        return Fraction(num, den)
    raise InputError(
        f"{where}: rationals must be integers or 'p/q' strings, got {value!r}"
    )


def render_rational(value: Fraction) -> int | str:
    """Canonical rendering: bare integer when q = 1, else 'p/q' in lowest terms."""
    value = Fraction(value)
    if value.denominator == 1:
        return int(value)
    return exact(value)


def dumps_canonical(obj) -> str:
    """Byte-stable JSON: sorted keys, fixed separators, trailing newline."""
    return any_digits(
        lambda: json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": "))
    ) + "\n"


# ---------------------------------------------------------------- documents


def _object(doc, kind: str, keys: tuple[str, ...]) -> dict:
    """``doc`` if it is a JSON object using only ``keys``, else an input error."""
    if not isinstance(doc, dict):
        raise InputError(f"{kind} document must be a JSON object")
    for key in doc:
        if key not in keys:
            raise InputError(
                f"{kind} document has unknown key {key!r} "
                f"(allowed: {', '.join(keys)})"
            )
    return doc


def _check_stated(stated, recomputed, what: str) -> None:
    if stated != recomputed:
        raise InputError(
            f"stated {what} {exact(stated)} != recomputed {exact(recomputed)}"
        )


def read_space_doc(
    doc: dict, max_points: int | None = None
) -> tuple[list[str], list[list[Fraction]], str]:
    """Labels, parsed rows and base of a space document; the shape is checked first."""
    _object(doc, "space", SPACE_KEYS)
    try:
        labels = doc["labels"]
        base = doc["base"]
        dist = doc["dist"]
    except KeyError as missing:
        raise InputError(f"space document missing key {missing}") from None
    if not isinstance(labels, list) or not all(isinstance(l, str) for l in labels):
        raise InputError("space labels must be a list of strings")
    if max_points is not None and len(labels) > max_points:
        raise InputError(
            f"space has {len(labels)} points, exceeding the cap of {max_points}"
        )
    if not isinstance(dist, list) or any(not isinstance(row, list) for row in dist):
        raise InputError("space dist must be a matrix (list of rows)")
    n = len(labels)
    if len(dist) != n or any(len(row) != n for row in dist):
        raise InputError(f"distance matrix must be {n}x{n}")
    parsed = [
        [parse_rational(x, f"dist[{i}][{j}]") for j, x in enumerate(row)]
        for i, row in enumerate(dist)
    ]
    return labels, parsed, base


def load_space_doc(doc: dict, max_points: int | None = None) -> FiniteMetricSpace:
    return build_space(*read_space_doc(doc, max_points))


def space_to_doc(space: FiniteMetricSpace) -> dict:
    return {
        "labels": list(space.labels),
        "base": space.labels[space.base],
        "dist": [[render_rational(x) for x in row] for row in space.dist],
    }


def load_pairs_doc(space: FiniteMetricSpace, doc: dict) -> list[Pair]:
    """Point-index pairs of a system document; weights, if any, are not read."""
    raw_pairs = _object(doc, "system", SYSTEM_KEYS).get("pairs")
    if not isinstance(raw_pairs, list):
        raise InputError("system document needs a 'pairs' list")
    pairs = []
    for i, entry in enumerate(raw_pairs):
        if not (isinstance(entry, list) and len(entry) == 2
                and all(isinstance(label, str) for label in entry)):
            raise InputError(f"pair {i} must be a two-element list of string labels")
        pairs.append((space.index(entry[0]), space.index(entry[1])))
    return pairs


def load_system_doc(space: FiniteMetricSpace, doc: dict) -> MoleculeSystem:
    pairs = load_pairs_doc(space, doc)
    raw_weights = doc.get("weights")
    if not isinstance(raw_weights, list):
        raise InputError("system document needs a 'weights' list")
    weights = [parse_rational(w, f"weight {i}") for i, w in enumerate(raw_weights)]
    system = build_system(space, pairs, weights)
    if "total_weight" in doc:
        _check_stated(parse_rational(doc["total_weight"], "total_weight"),
                      system.total_weight, "total weight")
    return system


def system_to_doc(space: FiniteMetricSpace, system: MoleculeSystem) -> dict:
    return {
        "pairs": [
            [space.labels[x], space.labels[y]] for x, y in system.pairs
        ],
        "weights": [render_rational(w) for w in system.weights],
    }


def load_element_doc(space: FiniteMetricSpace, doc: dict) -> PointMassElement:
    coeffs = _object(doc, "element", ELEMENT_KEYS).get("coeffs")
    if not isinstance(coeffs, dict):
        raise InputError("element document needs a 'coeffs' object")
    parsed = {
        space.index(label): parse_rational(value, f"coeffs[{label}]")
        for label, value in coeffs.items()
    }
    return element_from_coeffs(space, parsed)


def function_to_doc(space: FiniteMetricSpace, f: LipschitzFunction) -> dict:
    return {
        "values": {
            space.labels[p]: render_rational(f.values[p]) for p in space.points()
        },
        "lip": render_rational(f.lip_constant),
        "base_pinned": f.base_pinned,
    }


def load_function_doc(space: FiniteMetricSpace, doc: dict) -> LipschitzFunction:
    if not isinstance(_object(doc, "function", FUNCTION_KEYS).get("values"), dict):
        raise InputError("function document needs a 'values' object")
    raw = doc["values"]
    values = [Fraction(0)] * len(space)
    seen = set()
    for label, value in raw.items():
        p = space.index(label)
        values[p] = parse_rational(value, f"values[{label}]")
        seen.add(p)
    if seen != set(space.points()):
        raise InputError("function document must assign a value to every point")
    out = make_function(space, values)
    if "lip" in doc:
        _check_stated(parse_rational(doc["lip"], "lip"), out.lip_constant,
                      "Lipschitz constant")
    if "base_pinned" in doc:
        if not isinstance(doc["base_pinned"], bool):
            raise InputError("function base_pinned must be true or false")
        _check_stated(doc["base_pinned"], out.base_pinned, "base_pinned")
    return out


def partial_to_doc(space: FiniteMetricSpace, partial: PartialFunction) -> dict:
    return {
        "domain": [space.labels[p] for p in partial.domain],
        "values": {
            space.labels[p]: render_rational(v) for p, v in partial.values.items()
        },
    }


def certificate_to_doc(space: FiniteMetricSpace, cert: TransportCertificate) -> dict:
    return {
        "value": render_rational(cert.value),
        "plan": [
            [space.labels[s], space.labels[t], render_rational(m)]
            for s, t, m in cert.plan
        ],
        "dual": function_to_doc(space, cert.dual),
    }


def witness_to_doc(
    space: FiniteMetricSpace, pairs, witness: NegativeCycleWitness
) -> dict:
    """Witness with the violated cycle inequality rendered on both sides."""
    from .potentials import aligned_and_cross_sums

    aligned, cross = aligned_and_cross_sums(space, pairs, witness.cycle)
    return {
        "cycle": list(witness.cycle),
        "sum": render_rational(witness.sum),
        "aligned_sum": render_rational(aligned),
        "cross_sum": render_rational(cross),
    }


def table_to_doc(table: PotentialTable) -> dict:
    return {
        "B": [[render_rational(x) for x in row] for row in table.B],
        "alphas": [render_rational(a) for a in table.alphas],
        "anchor": table.anchor,
        "rigid_pairs": [list(p) for p in sorted(table.rigid_pairs)],
        "globally_unique": table.globally_unique,
    }
