"""Command-line front end emitting byte-stable JSON certificate reports.

Exit codes: 0 positive verdict or plain success, 1 negative verdict,
2 input error (malformed documents, violated preconditions, size caps),
3 internal certificate mismatch (failed self-verification or oracle
disagreement) or any other internal fault, so a bug can never read as a
negative verdict. Re-verified from the raw inputs before printing: the
reports of ``norm``, ``attains``, ``decompose`` and ``decide``, the verdict
that ``stability`` builds on (its bound is read off the raw distances),
``norming``'s values on N and its two extensions, and every
negative-cycle witness, on the pairs it is printed with. Not yet
re-verified: the table ``potentials`` prints, the reports of
``gateaux-eps`` and ``coverage-prefix``, and an isometric ``l1-check``.

Each ``cmd_*`` handler returns ``(exit code, report)``; ``main`` alone prints
and flushes the report, tags it ``"oracle": "agree"`` under ``--oracle``
(every oracle check raises before its handler returns) and maps errors to
exit codes, so a report that cannot be written exits 3.

``run`` is the process entry point, of ``python -m lipfree.cli`` and of the
``lipfree`` console script: it calls ``main``, flushes both streams and ends
the process with ``os._exit``, skipping interpreter finalization (atexit
handlers, object finalizers, module teardown), a cost paid after the report
is out. Library callers and tests call ``main``, which returns the code and
never exits.

``cli`` keeps nothing but ``os``, ``sys``, ``types`` (which ``site`` loads at
start-up) and ``errors`` at module level, and imports a library module only in
the code that runs it: each handler imports what it uses, so a command
compiles and loads only the modules it runs. ``COMMANDS`` is the one table
of commands and their flags. ``_parse_fast`` reads a well-formed command
line from it without argparse; every other command line, help and every
usage error among them, goes to the argparse parser that ``_build_parser``
makes from the same table. That parser is the only writer of help, usage
and error text, and such a run loads of lipfree only ``cli`` and
``errors``. argparse's own writer swallows a failed write of help or usage
text; the parser's ``Parser`` class writes it so that the failure reaches
``main`` and exits 3.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from .errors import CertificateMismatchError, InputError, LipfreeError

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_MISMATCH = 3

DEFAULT_MAX_POINTS = 512

# each ``gen`` kind: its generator in ``lipfree.generators`` and the number
# of points it adds to ``--size`` (the base of a star or a c0 truncation);
# ``random`` alone reads ``--seed`` and ``--profile``
GEN_KINDS = {
    "star": ("gen_star", 1),
    "c0": ("gen_c0_truncation", 1),
    "line": ("gen_line", 0),
    "random": ("gen_random", 0),
}


def _integer(raw: str) -> int | None:
    """``int(raw)`` for ASCII ``-?[0-9]+`` only, else ``None``: not the
    separators, spaces, plus sign and non-ASCII digits ``int`` takes."""
    if raw.isascii() and raw.removeprefix("-").isdigit():
        try:
            return int(raw)
        except ValueError:  # more digits than int() converts
            pass
    return None


def _max_points() -> int:
    raw = os.environ.get("LIPFREE_MAX_POINTS", "")
    if not raw:
        return DEFAULT_MAX_POINTS
    cap = _integer(raw)
    if cap is None:
        raise InputError(f"LIPFREE_MAX_POINTS must be an integer, got {raw!r}")
    if cap < 1:
        raise InputError("LIPFREE_MAX_POINTS must be positive")
    return cap


def _read_json(path: str) -> dict:
    import json

    def unique(pairs):
        doc = {}
        for key, value in pairs:
            if key in doc:
                raise InputError(f"{path} repeats the key {key!r}")
            doc[key] = value
        return doc

    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle, object_pairs_hook=unique)
    except OSError as err:
        raise InputError(f"cannot read {path}: {err}") from None
    # ValueError covers malformed JSON, bytes that are not UTF-8 and integer
    # literals longer than int() converts; RecursionError, deep nesting
    except (ValueError, RecursionError) as err:
        raise InputError(f"{path} is not valid JSON: {err}") from None


def _load_space(args):
    from .serialization import load_space_doc

    return load_space_doc(_read_json(args.space), max_points=_max_points())


def _load_system(args):
    from .serialization import load_system_doc

    space = _load_space(args)
    return space, load_system_doc(space, _read_json(args.system))


def _load_family(args):
    """``_load_system`` for a command that solves the family, which needs a pair."""
    space, system = _load_system(args)
    if not system.pairs:
        raise InputError(f"{args.system} has no pairs; {args.command} needs at least one")
    return space, system


def _witness_doc(space, pairs, witness) -> dict:
    """Re-check a negative-cycle witness on the beta of ``pairs``, then render it."""
    from .molecules import beta_matrix
    from .potentials import recheck_witness
    from .serialization import witness_to_doc

    recheck_witness(beta_matrix(space, pairs), witness)
    return witness_to_doc(space, pairs, witness)


def _close(args, space, pairs):
    """``(table, None)``, or ``(None, witness doc)``; ``--oracle`` enumerates cycles too."""
    from .potentials import check_cyclical_monotonicity

    verdict = check_cyclical_monotonicity(space, pairs)
    if getattr(args, "oracle", False):
        from .molecules import beta_matrix
        from .oracles import brute_cycles

        min_sum, _ = brute_cycles(beta_matrix(space, pairs))
        if (min_sum >= 0) != verdict.holds:
            raise CertificateMismatchError("cycle enumeration oracle disagrees")
    if verdict.holds:
        return verdict.table, None
    return None, _witness_doc(space, pairs, verdict.witness)


def _code(positive: bool) -> int:
    return EXIT_OK if positive else EXIT_NEGATIVE


# ---------------------------------------------------------------- commands


def cmd_validate(args) -> tuple[int, dict]:
    from .metric import validate_space
    from .serialization import read_space_doc, render_rational

    report = validate_space(*read_space_doc(_read_json(args.space), _max_points()))
    return _code(report.ok), {
        "ok": report.ok,
        "theta": None if report.theta is None else render_rational(report.theta),
        "diameter": render_rational(report.diameter),
        "violations": [[kind, list(idx)] for kind, idx in report.violations],
    }


def cmd_gen(args) -> tuple[int, dict]:
    from . import generators
    from .serialization import space_to_doc

    name, added = GEN_KINDS[args.kind]
    if args.size + added > _max_points():
        raise InputError("generated space exceeds the point cap")
    extra = (args.seed, args.profile) if args.kind == "random" else ()
    return EXIT_OK, space_to_doc(getattr(generators, name)(args.size, *extra))


def cmd_norm(args) -> tuple[int, dict]:
    from .serialization import certificate_to_doc, load_element_doc
    from .transport import free_norm

    space = _load_space(args)
    element = load_element_doc(space, _read_json(args.element))
    cert = free_norm(space, element)
    report = certificate_to_doc(space, cert)
    if args.oracle:
        from .oracles import brute_dual_norm

        reference = brute_dual_norm(space, element)
        if reference != cert.value:
            raise CertificateMismatchError(
                f"oracle disagreement: vertex sweep {reference}, solver {cert.value}"
            )
    return EXIT_OK, report


def cmd_attains(args) -> tuple[int, dict]:
    from .molecules import to_point_masses
    from .serialization import render_rational
    from .transport import free_norm

    space, system = _load_system(args)
    cert = free_norm(space, to_point_masses(space, system))
    attained = cert.value == system.total_weight
    # no pairs is the zero element: norm 0 equals total weight 0, no cycle to close
    _, witness = _close(args, space, system.pairs) if system.pairs else (None, None)
    if attained != (witness is None):
        raise CertificateMismatchError(
            "norm attainment and cyclical monotonicity disagree"
        )
    report = {
        "attains": attained,
        "norm": render_rational(cert.value),
        "total_weight": render_rational(system.total_weight),
    }
    if witness is not None:
        report["witness"] = witness
    return _code(attained), report


def cmd_decompose(args) -> tuple[int, dict]:
    from .potentials import check_cyclical_monotonicity
    from .serialization import load_element_doc, render_rational, system_to_doc
    from .transport import decompose_to_molecules

    space = _load_space(args)
    element = load_element_doc(space, _read_json(args.element))
    system = decompose_to_molecules(space, element)
    if system.pairs and not check_cyclical_monotonicity(space, system.pairs).holds:
        raise CertificateMismatchError("decomposition is not cyclically monotone")
    report = system_to_doc(space, system)
    report["total_weight"] = render_rational(system.total_weight)
    return EXIT_OK, report


def cmd_potentials(args) -> tuple[int, dict]:
    from .serialization import table_to_doc

    space, system = _load_family(args)
    table, witness = _close(args, space, system.pairs)
    if witness is not None:
        return EXIT_NEGATIVE, {"holds": False, "witness": witness}
    return EXIT_OK, {"holds": True, **table_to_doc(table)}


def cmd_norming(args) -> tuple[int, dict]:
    from .norming import build_on_N, extend_lower, extend_upper, recheck_on_N
    from .serialization import function_to_doc, partial_to_doc

    space, system = _load_family(args)
    table, witness = _close(args, space, system.pairs)
    if witness is not None:
        return EXIT_NEGATIVE, {"holds": False, "witness": witness}
    partial = build_on_N(space, system.pairs, table)
    recheck_on_N(space, system.pairs, partial.values)
    upper = extend_upper(space, partial)
    lower = extend_lower(space, partial)
    return EXIT_OK, {
        "holds": True,
        "partial": partial_to_doc(space, partial),
        "upper": function_to_doc(space, upper),
        "lower": function_to_doc(space, lower),
    }


def cmd_gateaux_eps(args) -> tuple[int, dict]:
    from .differentiability import check_gateaux_eps
    from .serialization import parse_rational, render_rational

    space, system = _load_family(args)
    eps = parse_rational(args.eps, "eps")
    report = check_gateaux_eps(space, system, eps)
    return _code(report.satisfied), {
        "eps": render_rational(eps),
        "cond_i_failures": [list(p) for p in report.cond_i],
        "cond_ii_failures": {
            space.labels[p]: {
                "s": space.labels[s],
                "t": space.labels[t],
                "slack": render_rational(slack),
            }
            for p, (s, t, slack) in sorted(report.cond_ii.items())
        },
        "satisfied": report.satisfied,
    }


def cmd_decide(args) -> tuple[int, dict]:
    from .differentiability import (
        NonUniqueOnN, NotAttaining, Uncovered, VerdictKind, decide, recheck_verdict)
    from .serialization import function_to_doc, render_rational, witness_to_doc

    space, system = _load_system(args)
    verdict = decide(space, system)
    recheck_verdict(space, system, verdict)
    if args.oracle:
        from .oracles import brute_norming_uniqueness

        unique = brute_norming_uniqueness(space, system)
        if unique != (verdict.kind is VerdictKind.FRECHET):
            raise CertificateMismatchError("norming uniqueness oracle disagrees")
    if verdict.kind is VerdictKind.FRECHET:
        return EXIT_OK, {
            "kind": "frechet",
            "norming": function_to_doc(space, verdict.norming),
            "coverage": {
                space.labels[p]: [space.labels[s], space.labels[t]]
                for p, (s, t) in sorted(verdict.coverage.items())
            },
        }
    failure = verdict.failure
    if isinstance(failure, NotAttaining):
        detail = {
            "kind": "not_attaining",
            "witness": witness_to_doc(space, system.pairs, failure.witness),
        }
    elif isinstance(failure, NonUniqueOnN):
        detail = {"kind": "non_unique_on_n", "pair": list(failure.pair)}
    else:
        assert isinstance(failure, Uncovered)
        detail = {
            "kind": "uncovered",
            "point": space.labels[failure.point],
            "extension_gap": render_rational(failure.extension_gap),
        }
    return EXIT_NEGATIVE, {"kind": "not_gateaux", "failure": detail}


def cmd_coverage_prefix(args) -> tuple[int, dict]:
    from .differentiability import coverage_eps_prefix
    from .serialization import parse_rational, render_rational

    space, system = _load_family(args)
    eps = parse_rational(args.eps, "eps")
    prefix = coverage_eps_prefix(space, system, eps)
    return _code(prefix is not None), {"eps": render_rational(eps), "prefix": prefix}


def cmd_l1_check(args) -> tuple[int, dict]:
    from .differentiability import l1_basis_check
    from .serialization import load_pairs_doc

    if args.max_pairs < 1:
        raise InputError("--max-pairs must be positive")
    space = _load_space(args)
    pairs = load_pairs_doc(space, _read_json(args.system))
    verdict = l1_basis_check(space, pairs, max_pairs=args.max_pairs)
    if verdict.isometric:
        return EXIT_OK, {"isometric_l1": True}
    oriented = [
        (y, x) if flip else (x, y)
        for (x, y), flip in zip(pairs, verdict.orientation)
    ]
    return EXIT_NEGATIVE, {
        "isometric_l1": False,
        "orientation": list(verdict.orientation),
        "witness": _witness_doc(space, oriented, verdict.witness),
    }


def cmd_stability(args) -> tuple[int, dict]:
    from .differentiability import frechet_verdict, stability_bound, stability_holds
    from .serialization import load_function_doc, parse_rational, render_rational

    # refused before any document is read: the two flags make one question
    if args.function is not None and args.eps is None:
        raise InputError("--function requires --eps")
    if args.eps is not None and args.function is None:
        raise InputError("--eps requires --function")
    space, system = _load_system(args)
    verdict = frechet_verdict(space, system)
    if args.function is None:
        verified, bound = None, stability_bound(space, system)
    else:
        g = load_function_doc(space, _read_json(args.function))
        eps = parse_rational(args.eps, "eps")
        verified, bound = stability_holds(space, system, verdict.norming, g, eps)
    report = {
        "theta": render_rational(bound.theta),
        "diameter": render_rational(bound.D),
        "pairs": bound.n,
        "bound": render_rational(bound.K),
    }
    if verified is None:
        return EXIT_OK, report
    report["eps"] = render_rational(eps)
    report["verified"] = verified
    return _code(verified), report


# ---------------------------------------------------------------- parsing


_SPACE = {"required": True, "help": "space JSON document"}
_SYSTEM = {"required": True, "help": "system JSON document"}
_ELEMENT = {"required": True, "help": "element JSON document"}
_EPS = {"required": True, "help": "positive rational, e.g. 1/2"}
_ORACLE = {"action": "store_true", "help": "cross-check with brute force"}

# each command: its handler and its flags as ``add_argument`` keywords, in
# the order ``<cmd> --help`` lists them; ``"type": _integer`` marks an
# integer flag, which argparse reads through ``_integer`` too
COMMANDS = {
    "validate": (cmd_validate, {"--space": _SPACE}),
    "gen": (cmd_gen, {
        "--kind": {"choices": list(GEN_KINDS), "required": True},
        "--size": {"type": _integer, "required": True},
        "--seed": {"type": _integer, "default": 0},
        "--profile": {"choices": ["generic", "near-degenerate"], "default": "generic"},
    }),
    "norm": (cmd_norm, {"--space": _SPACE, "--element": _ELEMENT, "--oracle": _ORACLE}),
    "attains": (cmd_attains, {"--space": _SPACE, "--system": _SYSTEM, "--oracle": _ORACLE}),
    "decompose": (cmd_decompose, {"--space": _SPACE, "--element": _ELEMENT}),
    "potentials": (cmd_potentials, {"--space": _SPACE, "--system": _SYSTEM, "--oracle": _ORACLE}),
    "norming": (cmd_norming, {"--space": _SPACE, "--system": _SYSTEM}),
    "gateaux-eps": (cmd_gateaux_eps, {"--space": _SPACE, "--system": _SYSTEM, "--eps": _EPS}),
    "decide": (cmd_decide, {"--space": _SPACE, "--system": _SYSTEM, "--oracle": _ORACLE}),
    "coverage-prefix": (cmd_coverage_prefix, {"--space": _SPACE, "--system": _SYSTEM, "--eps": _EPS}),
    "l1-check": (cmd_l1_check, {
        "--space": _SPACE,
        "--system": _SYSTEM,
        "--max-pairs": {"type": _integer, "default": 20},
    }),
    "stability": (cmd_stability, {
        "--space": _SPACE,
        "--system": _SYSTEM,
        "--function": {"default": None, "help": "candidate function JSON"},
        "--eps": {"default": None, "help": "positive rational"},
    }),
}


def _parse_fast(argv) -> SimpleNamespace | None:
    """The namespace argparse makes of a well-formed ``argv``, else ``None``.

    Well-formed is a command, then flags of it spelled out in full, each
    given once and each that takes a value followed by one that does not
    start with ``-``, with every required flag given and every value of its
    flag's type and choices. Every other ``argv`` is argparse's to read or
    refuse: help, abbreviations, ``--flag=value``, repeated flags, values
    starting with ``-`` and every usage error.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    handler, flags = COMMANDS[argv[0]]
    given = {}
    rest = iter(argv[1:])
    for flag in rest:
        spec = flags.get(flag)
        if spec is None or flag in given:
            return None
        if "action" in spec:  # store_true
            given[flag] = True
            continue
        raw = next(rest, "-")  # a missing value fails like one starting with "-"
        if raw.startswith("-"):
            return None
        value = _integer(raw) if spec.get("type") is _integer else raw
        if value is None or value not in spec.get("choices", (value,)):
            return None
        given[flag] = value
    if any(spec.get("required") and flag not in given for flag, spec in flags.items()):
        return None
    args = SimpleNamespace(command=argv[0], handler=handler)
    for flag, spec in flags.items():
        default = spec.get("default", False if "action" in spec else None)
        setattr(args, flag[2:].replace("-", "_"), given.get(flag, default))
    return args


def _build_parser():
    """The argparse parser of ``COMMANDS``: help, usage and error text."""
    import argparse

    class Parser(argparse.ArgumentParser):
        """argparse, except that help or usage text that cannot be written raises.

        ``_print_message`` is argparse's one writer of help, usage and error
        text, and it ignores an ``OSError``; subparsers are made of the same
        class.
        """

        def _print_message(self, message, file=None):
            if message:
                (file or sys.stderr).write(message)

    def integer(raw):
        value = _integer(raw)
        if value is None:  # worded as type=int's error
            raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}")
        return value

    parser = Parser(
        prog="lipfree",
        description="Exact decision procedures for free-space geometry "
        "over finite metric spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, flags) in COMMANDS.items():
        p = sub.add_parser(name)
        for flag, spec in flags.items():
            if spec.get("type") is _integer:
                spec = {**spec, "type": integer}
            p.add_argument(flag, **spec)
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse_fast(argv)
        if args is None:
            try:
                args = _build_parser().parse_args(argv)
            except SystemExit as err:  # argparse printed help or a usage error
                sys.stdout.flush()
                return EXIT_INPUT if err.code else EXIT_OK
        code, report = args.handler(args)
        if getattr(args, "oracle", False):
            report["oracle"] = "agree"
        from .serialization import dumps_canonical

        sys.stdout.write(dumps_canonical(report))
        sys.stdout.flush()
        return code
    except CertificateMismatchError as err:
        print(f"lipfree: certificate mismatch: {err}", file=sys.stderr)
        return EXIT_MISMATCH
    except LipfreeError as err:
        print(f"lipfree: {err}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as err:
        print(f"lipfree: internal error: {err!r}", file=sys.stderr)
        return EXIT_MISMATCH


def run() -> None:
    """Run ``main`` as a whole process and end it once its output is out.

    ``main`` flushes stdout after the report or help text; ``os._exit`` skips
    the flush that shutdown would do, so both streams are flushed here once
    more, and a stream that cannot be flushed exits 3. Finalization is
    skipped: every check ran before the report.
    """
    code = main()
    try:
        sys.stdout.flush()
    except Exception as err:
        if code != EXIT_MISMATCH:  # else main reported this write already
            print(f"lipfree: internal error: {err!r}", file=sys.stderr)
        code = EXIT_MISMATCH
    try:
        sys.stderr.flush()
    except Exception:
        code = EXIT_MISMATCH
    os._exit(code)


if __name__ == "__main__":  # pragma: no cover
    run()
