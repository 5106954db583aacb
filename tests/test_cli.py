"""Exit-code and report-shape tests for the command-line front end."""

import errno
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lipfree.cli as cli
import lipfree.generators as generators
from lipfree import build_space, build_system, closure, differentiability, make_function
from lipfree import attains, potentials
from lipfree import verify_norming
from lipfree.errors import CertificateMismatchError, LipfreeError
from lipfree.molecules import BetaMatrix
from lipfree.norming import PartialFunction, build_on_N, extend_upper
from lipfree.potentials import NegativeCycleWitness, recheck_witness
from lipfree.serialization import dumps_canonical, load_function_doc
from test_golden import CASES, argv_of

INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"

TRI = {"labels": ["0", "a", "b"], "base": "0", "dist": [[0, 2, 1], [2, 0, 2], [1, 2, 0]]}


@pytest.fixture
def docs(tmp_path):
    garbage = tmp_path / "garbage.json"
    garbage.write_text(json.dumps({"nope": 1}))
    names = ("tri", "broken", "elem", "sys_one", "sys_bad")
    return {"garbage": str(garbage), **{name: str(INPUTS / f"{name}.json") for name in names}}


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_validate_ok(self, capsys, docs):
        code, out, _ = run(capsys, "validate", "--space", docs["tri"])
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_validate_bad_space(self, capsys, docs):
        code, out, _ = run(capsys, "validate", "--space", docs["broken"])
        assert code == 1
        report = json.loads(out)
        assert ["triangle", [0, 1, 2]] in report["violations"]

    def test_norm_with_oracle(self, capsys, docs):
        code, out, _ = run(
            capsys, "norm", "--space", docs["tri"], "--element", docs["elem"], "--oracle"
        )
        assert code == 0
        report = json.loads(out)
        assert report["value"] == "3/4"
        assert report["oracle"] == "agree"

    def test_attains_negative_witness(self, capsys, docs):
        code, out, _ = run(
            capsys, "attains", "--space", docs["tri"], "--system", docs["sys_bad"]
        )
        assert code == 1
        report = json.loads(out)
        assert report["attains"] is False
        assert report["witness"]["aligned_sum"] == 3
        assert report["witness"]["cross_sum"] == 2

    def test_decide_uncovered(self, capsys, docs):
        code, out, _ = run(
            capsys, "decide", "--space", docs["tri"], "--system", docs["sys_one"]
        )
        assert code == 1
        report = json.loads(out)
        assert report["kind"] == "not_gateaux"
        assert report["failure"]["point"] == "b"
        assert report["failure"]["extension_gap"] == 1

    def test_input_error_is_exit_two(self, capsys, docs):
        code, _, err = run(
            capsys, "decide", "--space", docs["tri"], "--system", docs["garbage"]
        )
        assert code == 2
        assert err

    def test_missing_file_is_exit_two(self, capsys, docs):
        code, _, err = run(capsys, "norm", "--space", docs["tri"], "--element", "/nope.json")
        assert code == 2
        assert err

    def test_unknown_command_is_exit_two(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_removed_gen_kind_is_exit_two(self, capsys):
        code, out, err = run(capsys, "gen", "--kind", "c0_truncation", "--size", "2")
        assert (code, out) == (2, "")
        assert "invalid choice: 'c0_truncation'" in err

    def test_stability_of_a_non_frechet_family_is_exit_two(self, capsys, docs):
        code, out, err = run(capsys, "stability", "--space", docs["tri"],
                             "--system", docs["sys_one"])
        assert (code, out) == (2, "")
        assert "stability bound applies to Frechet points only" in err

    def test_gateaux_eps_requires_attaining_system(self, capsys, docs):
        code, _, err = run(
            capsys,
            "gateaux-eps",
            "--space", docs["tri"],
            "--system", docs["sys_bad"],
            "--eps", "1/2",
        )
        assert code == 2
        assert "monotone" in err

    def test_float_eps_rejected(self, capsys, docs):
        code, _, _ = run(
            capsys,
            "gateaux-eps",
            "--space", docs["tri"],
            "--system", docs["sys_one"],
            "--eps", "0.5",
        )
        assert code == 2

    def test_gateaux_eps_satisfied_at_large_eps(self, capsys, docs):
        code, out, _ = run(
            capsys,
            "gateaux-eps",
            "--space", docs["tri"],
            "--system", docs["sys_one"],
            "--eps", "2",
        )
        assert code == 0
        assert json.loads(out)["satisfied"] is True

    def test_oracle_cap_is_input_error(self, capsys, tmp_path):
        import lipfree.serialization as ser
        from lipfree import gen_star

        star = gen_star(8)
        space_path = tmp_path / "star8.json"
        space_path.write_text(json.dumps(ser.space_to_doc(star)))
        sys_path = tmp_path / "sys8.json"
        weights = [Fraction(1, 8)] * 8
        sys_path.write_text(
            json.dumps(
                {
                    "pairs": [[str(n), "0"] for n in range(1, 9)],
                    "weights": [str(w) for w in weights],
                }
            )
        )
        code, _, err = run(
            capsys,
            "decide",
            "--space", str(space_path),
            "--system", str(sys_path),
            "--oracle",
        )
        assert code == 2
        assert "caps" in err

    def test_certificate_mismatch_is_exit_three(self, capsys, docs, monkeypatch):
        def broken_recheck(space, system, verdict):
            raise cli.CertificateMismatchError("synthetic corruption")

        monkeypatch.setattr(differentiability, "recheck_verdict", broken_recheck)
        code, _, err = run(
            capsys, "decide", "--space", docs["tri"], "--system", docs["sys_one"]
        )
        assert code == 3
        assert "certificate mismatch" in err

    # json.load keeps the last of two equal keys; the reader refuses them
    def test_repeated_coefficient_label_is_input_error(self, capsys, docs, tmp_path):
        element = tmp_path / "repeated.json"
        element.write_text('{"coeffs": {"a": 1, "a": 5}}')
        code, out, err = run(capsys, "norm", "--space", docs["tri"], "--element", str(element))
        assert (code, out) == (2, "")
        assert "repeats the key 'a'" in err

    def test_repeated_base_key_is_input_error(self, capsys, tmp_path):
        space = tmp_path / "repeated.json"
        space.write_text(json.dumps(TRI)[:-1] + ', "base": "a"}')
        code, out, err = run(capsys, "validate", "--space", str(space))
        assert (code, out) == (2, "")
        assert "repeats the key 'base'" in err

    def test_repeated_function_value_is_input_error(self, capsys, tmp_path):
        g = tmp_path / "repeated.json"
        g.write_text('{"values": {"0": 0, "1": 1, "2": 1, "3": "3/4", "1": 0}}')
        code, out, err = run(
            capsys,
            "stability",
            "--space", str(INPUTS / "star3.json"),
            "--system", str(INPUTS / "star3_sys.json"),
            "--function", str(g),
            "--eps", "1/16",
        )
        assert (code, out) == (2, "")
        assert "repeats the key '1'" in err

    def test_validate_reads_labels_like_norm(self, capsys, tmp_path):
        space = tmp_path / "int_labels.json"
        space.write_text(json.dumps({"labels": [0, 1], "base": "0", "dist": [[0, 1], [1, 0]]}))
        element = tmp_path / "elem.json"
        element.write_text(json.dumps({"coeffs": {"1": 1}}))
        assert run(capsys, "norm", "--space", str(space), "--element", str(element))[0] == 2
        code, out, err = run(capsys, "validate", "--space", str(space))
        assert code == 2
        assert out == ""
        assert "labels" in err

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_l1_pair_cap_below_one_is_input_error(self, capsys, docs, monkeypatch, tmp_path,
                                                  cap):
        # refused before any document is read, even a family with no pairs
        no_pairs = str(tmp_path / "no_pairs.json")
        Path(no_pairs).write_text(json.dumps({"pairs": []}))
        assert run(capsys, "l1-check", "--space", docs["tri"], "--system", no_pairs)[0] == 0
        read = []
        monkeypatch.setattr(cli, "_read_json", read.append)
        code, out, err = run(capsys, "l1-check", "--space", docs["tri"],
                             "--system", no_pairs, "--max-pairs", cap)
        assert (code, out, read) == (2, "", [])
        assert "--max-pairs must be positive" in err

    @pytest.mark.parametrize("given,missing", [("--eps", "--function"), ("--function", "--eps")])
    def test_stability_flags_come_together(self, capsys, monkeypatch, given, missing):
        # refused before any document is read; --eps alone used to be ignored
        read = []
        monkeypatch.setattr(cli, "_read_json", read.append)
        code, out, err = run(capsys, "stability", "--space", str(INPUTS / "star3.json"),
                             "--system", str(INPUTS / "star3_sys.json"), given, "1/2")
        assert (code, out, read) == (2, "", [])
        assert f"{given} requires {missing}" in err

    def test_point_cap_env(self, capsys, docs, monkeypatch):
        monkeypatch.setenv("LIPFREE_MAX_POINTS", "2")
        code, _, err = run(capsys, "validate", "--space", docs["tri"])
        assert code == 2
        assert "cap" in err

    @pytest.mark.parametrize("raw, message", [
        ("abc", "LIPFREE_MAX_POINTS must be an integer, got 'abc'"),
        ("0", "LIPFREE_MAX_POINTS must be positive"),
        ("1_0", "LIPFREE_MAX_POINTS must be an integer, got '1_0'"),
        (" 5", "LIPFREE_MAX_POINTS must be an integer, got ' 5'"),
        ("+5", "LIPFREE_MAX_POINTS must be an integer, got '+5'"),
        ("\u0665", "LIPFREE_MAX_POINTS must be an integer, got '\u0665'"),
        ("9" * 5000, f"LIPFREE_MAX_POINTS must be an integer, got '{'9' * 5000}'"),
    ], ids=["not-an-integer", "zero", "separator", "space", "plus", "arabic-indic-digit",
            "too-many-digits"])
    def test_point_cap_env_must_be_a_positive_integer(self, capsys, docs, monkeypatch,
                                                      raw, message):
        monkeypatch.setenv("LIPFREE_MAX_POINTS", raw)
        code, out, err = run(capsys, "validate", "--space", docs["tri"])
        assert (code, out) == (2, "")
        assert message in err

    @pytest.mark.parametrize(
        "kind, generator, size",
        [("star", "gen_star", 2), ("c0", "gen_c0_truncation", 2),
         ("line", "gen_line", 3), ("random", "gen_random", 3)],
    )
    def test_gen_checks_point_cap_before_generating(
        self, capsys, monkeypatch, kind, generator, size
    ):
        # size gives exactly 3 points: the cap admits it, one more is refused
        monkeypatch.setenv("LIPFREE_MAX_POINTS", "3")
        assert run(capsys, "gen", "--kind", kind, "--size", str(size))[0] == 0

        def never(*args):
            raise AssertionError("generator called past the point cap")

        monkeypatch.setattr(generators, generator, never)
        code, out, err = run(capsys, "gen", "--kind", kind, "--size", str(size + 1))
        assert code == 2
        assert out == ""
        assert "cap" in err

    # int() reads each of these; an integer flag takes ASCII -?[0-9]+ only
    @pytest.mark.parametrize("argv", [
        ["gen", "--kind", "star", "--size", "\u0663"],
        ["gen", "--kind", "line", "--size", "1_0"],
        ["gen", "--kind", "random", "--size", "3", "--seed", "+1"],
        ["l1-check", "--space", str(INPUTS / "tri.json"), "--system", str(INPUTS / "sys_one.json"),
         "--max-pairs", " 3"],
        ["gen", "--kind", "random", "--size", "3", "--seed", "9" * 5000],
    ], ids=["size-arabic-indic-digit", "size-separator", "seed-plus", "max-pairs-space",
            "seed-too-many-digits"])
    def test_integer_flags_take_ascii_digits_only(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"invalid int value: {argv[-1]!r}" in err


class TestCrossChecks:
    """Each second opinion a command asks for, made to disagree, exits 3 and prints nothing."""

    @pytest.mark.parametrize("target, fake, argv, message", [
        ("lipfree.oracles.brute_cycles", lambda beta: (Fraction(-1), None),
         ["attains", "--space", "tri", "--system", "sys_one", "--oracle"],
         "cycle enumeration oracle disagrees"),
        ("lipfree.oracles.brute_dual_norm", lambda space, element: Fraction(7),
         ["norm", "--space", "tri", "--element", "elem", "--oracle"],
         "oracle disagreement: vertex sweep 7, solver 3/4"),
        ("lipfree.potentials.check_cyclical_monotonicity",
         lambda space, pairs: SimpleNamespace(holds=True, table=None, witness=None),
         ["attains", "--space", "tri", "--system", "sys_bad"],
         "norm attainment and cyclical monotonicity disagree"),
        ("lipfree.potentials.check_cyclical_monotonicity",
         lambda space, pairs: SimpleNamespace(holds=False),
         ["decompose", "--space", "tri", "--element", "elem"],
         "decomposition is not cyclically monotone"),
        ("lipfree.oracles.brute_norming_uniqueness", lambda space, system: True,
         ["decide", "--space", "tri", "--system", "sys_one", "--oracle"],
         "norming uniqueness oracle disagrees"),
    ], ids=["close-oracle", "norm-oracle", "attains-cycle-check", "decompose-monotone",
            "decide-oracle"])
    def test_disagreement_is_exit_three(self, capsys, docs, monkeypatch, target, fake, argv,
                                        message):
        monkeypatch.setattr(target, fake)
        code, out, err = run(capsys, *(docs.get(word, word) for word in argv))
        assert (code, out) == (3, "")
        assert f"lipfree: certificate mismatch: {message}" in err


class TestReports:
    def test_validate_one_point_space(self, capsys, tmp_path):
        space = tmp_path / "one.json"
        space.write_text(json.dumps({"labels": ["0"], "base": "0", "dist": [[0]]}))
        code, out, _ = run(capsys, "validate", "--space", str(space))
        assert code == 0
        assert '"theta": null' in out and '"diameter": 0' in out
        assert json.loads(out) == {"ok": True, "theta": None, "diameter": 0, "violations": []}

    def test_gen_star_document(self, capsys):
        code, out, _ = run(capsys, "gen", "--kind", "star", "--size", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["labels"] == ["0", "1", "2"]
        assert doc["dist"][1][2] == 2

    def test_gen_random_deterministic(self, capsys):
        _, first, _ = run(capsys, "gen", "--kind", "random", "--size", "5", "--seed", "9")
        _, second, _ = run(capsys, "gen", "--kind", "random", "--size", "5", "--seed", "9")
        assert first == second

    def test_potentials_table(self, capsys, docs):
        code, out, _ = run(
            capsys, "potentials", "--space", docs["tri"], "--system", docs["sys_one"], "--oracle"
        )
        assert code == 0
        report = json.loads(out)
        assert report["holds"] is True
        assert report["globally_unique"] is True

    def test_norming_extensions(self, capsys, docs):
        code, out, _ = run(
            capsys, "norming", "--space", docs["tri"], "--system", docs["sys_one"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["upper"]["values"]["b"] == 1
        assert report["lower"]["values"]["b"] == 0

    def test_decompose(self, capsys, docs):
        code, out, _ = run(
            capsys, "decompose", "--space", docs["tri"], "--element", docs["elem"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["total_weight"] == "3/4"

    def test_l1_check_failure_detail(self, capsys, tmp_path):
        line = {
            "labels": ["0", "1", "2"],
            "base": "0",
            "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]],
        }
        space_path = tmp_path / "line.json"
        space_path.write_text(json.dumps(line))
        sys_path = tmp_path / "pairs.json"
        sys_path.write_text(json.dumps({"pairs": [["1", "0"], ["2", "0"]]}))
        code, out, _ = run(
            capsys, "l1-check", "--space", str(space_path), "--system", str(sys_path)
        )
        assert code == 1
        report = json.loads(out)
        assert report["orientation"] == [False, True]
        assert report["witness"]["sum"] == -2

    def test_stability_with_candidate_function(self, capsys, tmp_path, docs):
        star = {
            "labels": ["0", "1", "2", "3"],
            "base": "0",
            "dist": [[0, 1, 1, 1], [1, 0, 2, 2], [1, 2, 0, 2], [1, 2, 2, 0]],
        }
        space_path = tmp_path / "star3.json"
        space_path.write_text(json.dumps(star))
        sys_path = tmp_path / "sys3.json"
        sys_path.write_text(
            json.dumps(
                {
                    "pairs": [["1", "0"], ["2", "0"], ["3", "0"]],
                    "weights": ["4/7", "2/7", "1/7"],
                }
            )
        )
        fn_path = tmp_path / "fn.json"
        fn_path.write_text(
            json.dumps({"values": {"0": 0, "1": 1, "2": 1, "3": 1}})
        )
        code, out, _ = run(
            capsys,
            "stability",
            "--space", str(space_path),
            "--system", str(sys_path),
            "--function", str(fn_path),
            "--eps", "1/16",
        )
        assert code == 0
        report = json.loads(out)
        assert report["bound"] == 90
        assert report["verified"] is True

    def test_stability_solves_the_family_once(self, capsys, monkeypatch):
        calls = {"decide": 0, "recheck_verdict": 0, "stability_bound": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name in calls:
            wrapper = counted(name, getattr(differentiability, name))
            monkeypatch.setattr(differentiability, name, wrapper)
        family = ["--space", str(INPUTS / "star3.json"), "--system", str(INPUTS / "star3_sys.json")]
        g = ["--function", str(INPUTS / "star3_g_near.json"), "--eps", "1/16"]
        for extra, verified in [(g, True), ([], None)]:
            calls.update(dict.fromkeys(calls, 0))
            code, out, _ = run(capsys, "stability", *family, *extra)
            assert code == 0
            assert json.loads(out).get("verified") is verified
            assert calls == {"decide": 1, "recheck_verdict": 1, "stability_bound": 1}

    def test_stability_rechecks_the_frechet_verdict(self, capsys, monkeypatch):
        # f = (0, 1, 1, 1/2) does not norm the pair (3, 0)
        def forged(space, system):
            return differentiability.DiffVerdict(
                kind=differentiability.VerdictKind.FRECHET,
                norming=make_function(space, [0, 1, 1, Fraction(1, 2)]),
                coverage={p: (p, 0) if p else (1, 0) for p in space.points()},
            )

        monkeypatch.setattr(differentiability, "decide", forged)
        code, out, err = run(
            capsys,
            "stability",
            "--space", str(INPUTS / "star3.json"),
            "--system", str(INPUTS / "star3_sys.json"),
            "--function", str(INPUTS / "star3_g_near.json"),
            "--eps", "1/16",
        )
        assert (code, out) == (3, "")
        assert "does not norm every molecule" in err

    def test_uncovered_decide_closes_its_family_twice(self, capsys, monkeypatch):
        """Once in ``decide`` and once in the re-check; the printed gap is
        the one ``decide`` found, not a third solve."""
        calls = []

        def counted(beta):
            calls.append(beta)
            return closure(beta)

        monkeypatch.setattr(potentials, "closure", counted)
        monkeypatch.setattr(differentiability, "closure", counted)
        code, out, _ = run(
            capsys,
            "decide",
            "--space", str(INPUTS / "rand32.json"),
            "--system", str(INPUTS / "rand32_sys.json"),
        )
        assert code == 1
        assert out == (INPUTS.parent / "decide-rand32-uncovered.out").read_text()
        assert len(calls) == 2

    def test_coverage_prefix(self, capsys, tmp_path):
        star = {
            "labels": ["0", "1", "2"],
            "base": "0",
            "dist": [[0, 1, 1], [1, 0, 2], [1, 2, 0]],
        }
        space_path = tmp_path / "star2.json"
        space_path.write_text(json.dumps(star))
        sys_path = tmp_path / "sys2.json"
        sys_path.write_text(
            json.dumps({"pairs": [["1", "0"], ["2", "0"]], "weights": ["1/2", "1/2"]})
        )
        code, out, _ = run(
            capsys,
            "coverage-prefix",
            "--space", str(space_path),
            "--system", str(sys_path),
            "--eps", "1/2",
        )
        assert code == 0
        assert json.loads(out)["prefix"] == 2

    def test_output_byte_stable(self, capsys, docs):
        _, first, _ = run(
            capsys, "decide", "--space", docs["tri"], "--system", docs["sys_one"]
        )
        _, second, _ = run(
            capsys, "decide", "--space", docs["tri"], "--system", docs["sys_one"]
        )
        assert first == second
        assert first == dumps_canonical(json.loads(first))


class TestEmptyFamily:
    """``decompose`` writes the zero element as a family with no pairs."""

    @pytest.fixture
    def empty(self, capsys, docs, tmp_path):
        zero = tmp_path / "zero.json"
        zero.write_text(json.dumps({"coeffs": {}}))
        code, out, _ = run(capsys, "decompose", "--space", docs["tri"], "--element", str(zero))
        assert (code, json.loads(out)) == (0, {"pairs": [], "total_weight": 0, "weights": []})
        path = tmp_path / "empty_sys.json"
        path.write_text(out)
        return str(path)

    @pytest.mark.parametrize("oracle", [[], ["--oracle"]], ids=["plain", "oracle"])
    def test_attains_answers_true_like_the_library(self, capsys, docs, empty, oracle):
        code, out, _ = run(capsys, "attains", "--space", docs["tri"], "--system", empty, *oracle)
        assert code == 0
        report = json.loads(out)
        assert (report["attains"], report["norm"], report["total_weight"]) == (True, 0, 0)
        assert "witness" not in report
        space = build_space(TRI["labels"], TRI["dist"], TRI["base"])
        assert attains(space, build_system(space, [], [])) is True

    @pytest.mark.parametrize("command, extra", [
        ("potentials", []),
        ("norming", []),
        ("gateaux-eps", ["--eps", "1/2"]),
        ("coverage-prefix", ["--eps", "1/2"]),
    ])
    def test_commands_that_solve_the_family_refuse_it(self, capsys, docs, empty, command, extra):
        code, out, err = run(capsys, command, "--space", docs["tri"], "--system", empty, *extra)
        assert (code, out) == (2, "")
        assert f"{empty} has no pairs" in err


PARSER = cli._build_parser()
FLAGS = sorted({flag for _, flags in cli.COMMANDS.values() for flag in flags})
# values that are empty, are or start with "-", start with "+", hold a space,
# are not a choice ("ring") or are one ("star"), or are integers
VALUES = ["", "-", "-5", "+5", "x y", "-x y", "ring", "star", "near-degenerate", "3", "007",
          "a.json"]
# every command and flag, abbreviations, help, "--", joined values, and VALUES
TOKENS = [*cli.COMMANDS, *FLAGS, "--sp", "--sys", "--el", "--e", "--ora", "--max", "--k",
          "--si", "-h", "--help", "--", "--space=a.json", "--size=3", "--kind=star", *VALUES]
# a value of each flag that its type and choices take; any other flag takes "a.json"
VALID = {"--kind": "star", "--size": "3", "--seed": "3", "--max-pairs": "3",
         "--profile": "near-degenerate"}


def argparse_reading(argv):
    """``vars`` of argparse's namespace for ``argv``, or ``None`` where it exits."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(PARSER.parse_args(argv))
        except SystemExit:
            return None


@st.composite
def command_lines(draw):
    """A command, its required flags and some others in any order, each value
    valid or drawn from VALUES, then up to two tokens replaced or inserted;
    or any tokens."""
    token = st.sampled_from(TOKENS)
    if draw(st.integers(0, 3)) == 0:
        return draw(st.lists(token, max_size=8))
    command = draw(st.sampled_from(list(cli.COMMANDS)))
    flags = cli.COMMANDS[command][1]
    argv = [command]
    for flag in draw(st.permutations(list(flags))):
        if "action" in flags[flag]:
            argv += [flag] * draw(st.booleans())
        elif flags[flag].get("required") or draw(st.booleans()):
            valid = st.just(VALID.get(flag, "a.json"))
            argv += [flag, draw(st.one_of(valid, valid, st.sampled_from(VALUES)))]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(1, len(argv)))
        argv[at:at + draw(st.integers(0, 1))] = [draw(token)]
    return argv


class TestParsing:
    @settings(max_examples=400, deadline=None)
    @given(command_lines())
    def test_fast_parse_is_argparse_or_nothing(self, argv):
        fast = cli._parse_fast(argv)
        assert fast is None or vars(fast) == argparse_reading(argv)

    @pytest.mark.parametrize("name,template,expected", CASES, ids=[c[0] for c in CASES])
    def test_every_golden_takes_the_fast_path(self, name, template, expected):
        argv = argv_of(template)
        fast = cli._parse_fast(argv)
        assert fast is not None
        assert vars(fast) == argparse_reading(argv)

    @pytest.mark.parametrize("argv", [
        ["--help"], ["-h"], [], ["decide", "--help"], ["frobnicate"],
        ["gen", "--kind", "star"], ["gen", "--kind=star", "--size=3"],
        ["gen", "--k", "star", "--size", "3"], ["gen", "--kind", "star", "--size", "+5"],
        ["gen", "--kind", "star", "--size", "-1"], ["gen", "--kind", "ring", "--size", "3"],
        ["gen", "--kind", "star", "--size", "3", "--size", "4"],
        ["validate", "--space", "-"], ["validate", "--", "--space", "a.json"],
        ["norm", "--oracle", "x", "--space", "a.json", "--element", "b.json"],
    ], ids=["help", "h", "empty", "decide-help", "unknown-command", "missing-flag",
            "joined-values", "abbreviation", "plus", "negative", "non-choice", "repeated",
            "dash-value", "double-dash", "extra-token"])
    def test_every_other_form_is_left_to_argparse(self, argv):
        assert cli._parse_fast(argv) is None

    def test_main_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["lipfree", "gen", "--kind", "line", "--size", "2"])
        assert cli.main() == 0
        assert json.loads(capsys.readouterr().out)["labels"] == ["0", "1"]


class _Full(io.RawIOBase):
    """A device with no space left, like /dev/full, until ``space`` is set."""

    space = False

    def writable(self):
        return True

    def write(self, data):
        if self.space:
            return len(data)
        raise OSError(errno.ENOSPC, "No space left on device")


class TestInternalFaults:
    # argparse's own writer ignores a failed write of help text
    @pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("argv", [["--help"], ["decide", "--help"]],
                             ids=["help", "decide-help"])
    def test_help_that_cannot_be_written_is_exit_three(self, capsys, monkeypatch,
                                                        argv, buffered):
        full = _Full()
        stdout = io.TextIOWrapper(io.BufferedWriter(full) if buffered else full,
                                  write_through=not buffered)
        monkeypatch.setattr(sys, "stdout", stdout)
        try:
            assert cli.main(argv) == 3
        finally:
            full.space = True  # lets the wrapper close cleanly
        assert capsys.readouterr().err.count("lipfree: internal error") == 1

    def test_assertion_error_is_exit_three(self, capsys, docs, monkeypatch):
        for fault in (AssertionError, TypeError):
            def broken_decide(space, system):
                raise fault("synthetic invariant failure")

            monkeypatch.setattr(differentiability, "decide", broken_decide)
            code, out, err = run(
                capsys, "decide", "--space", docs["tri"], "--system", docs["sys_one"]
            )
            assert code == 3
            assert out == ""
            assert "internal error" in err

    @pytest.mark.parametrize("command", [
        ["norming"], ["decide"], ["stability"],
        ["gateaux-eps", "--eps", "1/2"], ["coverage-prefix", "--eps", "1/2"],
    ], ids=lambda command: command[0])
    def test_norming_values_on_N_that_are_not_1_lipschitz_are_exit_three(
        self, capsys, monkeypatch, tmp_path, command
    ):
        """A faulty solve of f on N is caught before the extensions or the
        coverage scan read it: ``decide`` and ``stability`` exited 2 on it,
        and ``gateaux-eps`` and ``coverage-prefix`` reported on it with exit 0."""
        system = tmp_path / "sys.json"
        system.write_text(json.dumps({"pairs": [["1", "0"], ["3", "2"]],
                                      "weights": ["1/2", "1/2"]}))
        monkeypatch.setattr(potentials.PotentialTable, "alphas", (0, 7))
        name, *extra = command
        code, out, err = run(capsys, name, "--space", str(INPUTS / "star3.json"),
                             "--system", str(system), *extra)
        assert (code, out) == (3, "")
        assert err == "lipfree: certificate mismatch: f on N is not 1-Lipschitz\n"

    @pytest.mark.parametrize("call", [
        lambda space, system: differentiability.decide(space, system),
        lambda space, system: differentiability.check_gateaux_eps(space, system, Fraction(1, 2)),
        lambda space, system: differentiability.coverage_eps_prefix(space, system, Fraction(1, 2)),
        lambda space, system: differentiability.min_coverage_slack(space, system, 0),
    ], ids=["decide", "check_gateaux_eps", "coverage_eps_prefix", "min_coverage_slack"])
    def test_library_refuses_f_on_N_that_is_not_1_lipschitz(self, monkeypatch, call):
        star = generators.gen_star(3)
        system = build_system(star, [(1, 0), (3, 2)], [Fraction(1, 2)] * 2)
        monkeypatch.setattr(potentials.PotentialTable, "alphas", (0, 7))
        with pytest.raises(CertificateMismatchError, match="^f on N is not 1-Lipschitz$"):
            call(star, system)

    @pytest.mark.parametrize("eps", ["1_0", "1/0_2", " 7 ", "+3", "٣"])
    def test_loose_rational_is_exit_two(self, capsys, docs, eps):
        code, _, err = run(
            capsys,
            "gateaux-eps",
            "--space", docs["tri"],
            "--system", docs["sys_one"],
            "--eps", eps,
        )
        assert code == 2
        assert "cannot parse rational" in err

    # int() refuses more digits than this (0 means no limit)
    DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    TOO_LONG = "1" * (DIGITS + 1)

    @pytest.mark.parametrize(
        "case",
        [
            "non-utf8",
            "deep-nesting",
            pytest.param("long-int-literal", marks=pytest.mark.skipif(
                not DIGITS, reason="no int digit limit")),
            pytest.param("long-rational-string", marks=pytest.mark.skipif(
                not DIGITS, reason="no int digit limit")),
            pytest.param("long-eps", marks=pytest.mark.skipif(
                not DIGITS, reason="no int digit limit")),
        ],
    )
    def test_malformed_input_is_exit_two(self, capsys, docs, tmp_path, case):
        space = tmp_path / "space.json"
        argv = ["validate", "--space", str(space)]
        if case == "non-utf8":
            space.write_bytes(b'{"labels": ["\xff"], "base": "0", "dist": [[0]]}')
        elif case == "deep-nesting":
            space.write_text("[" * 200000)
        elif case == "long-int-literal":
            space.write_text(
                '{"labels": ["0", "1"], "base": "0", "dist": [[0, %s], [%s, 0]]}'
                % (self.TOO_LONG, self.TOO_LONG)
            )
        elif case == "long-rational-string":
            space.write_text(json.dumps(
                {"labels": ["0", "1"], "base": "0",
                 "dist": [[0, "1/" + self.TOO_LONG], ["1/" + self.TOO_LONG, 0]]}
            ))
        else:
            argv = ["gateaux-eps", "--space", docs["tri"], "--system", docs["sys_one"],
                    "--eps", "1/" + self.TOO_LONG]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "internal error" not in err


class TestLongResults:
    # int() refuses more digits than this (0 means no limit)
    DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()

    @pytest.mark.skipif(not DIGITS, reason="no int digit limit")
    @pytest.mark.parametrize("den", [1, 7])
    def test_exact_norm_longer_than_the_digit_limit_prints(self, capsys, tmp_path, den):
        # each input number is within the limit, their product is not
        digits = self.DIGITS * 3 // 4
        dist, coeff = 10 ** (digits - 1), int("3" * digits)
        space = tmp_path / "space.json"
        space.write_text(json.dumps({"labels": ["0", "1"], "base": "0",
                                     "dist": [[0, dist], [dist, 0]]}))
        elem = tmp_path / "elem.json"
        elem.write_text(json.dumps({"coeffs": {"1": f"{coeff}/{den}"}}))
        code, out, err = run(capsys, "norm", "--space", str(space), "--element", str(elem))
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == self.DIGITS
        value = Fraction(coeff * dist, den)
        sys.set_int_max_str_digits(0)
        try:
            expected = str(value) if den == 1 else f'"{value}"'
        finally:
            sys.set_int_max_str_digits(self.DIGITS)
        assert f'"value": {expected}\n' in out
        assert len(expected) > self.DIGITS

    @pytest.mark.skipif(not DIGITS, reason="no int digit limit")
    def test_long_value_in_an_input_error_message_is_exit_two(self, capsys, tmp_path):
        # each weight is within the limit; their sum, which is not 1, is not
        weights = ["1/1" + "0" * (self.DIGITS * 3 // 5) + end for end in "13"]
        space = tmp_path / "space.json"
        space.write_text(json.dumps({"labels": ["0", "1"], "base": "0",
                                     "dist": [[0, 1], [1, 0]]}))
        system = tmp_path / "system.json"
        system.write_text(json.dumps({"pairs": [["1", "0"], ["1", "0"]], "weights": weights}))
        code, out, err = run(capsys, "decide", "--space", str(space), "--system", str(system))
        assert (code, out) == (2, "")
        assert sys.get_int_max_str_digits() == self.DIGITS
        sys.set_int_max_str_digits(0)
        try:
            total = str(sum(Fraction(int(w[2:])) ** -1 for w in weights))
        finally:
            sys.set_int_max_str_digits(self.DIGITS)
        assert err == f"lipfree: system weights must sum to 1 exactly, got {total}\n"
        assert len(total) > self.DIGITS

    @staticmethod
    def long_messages():
        """Calls whose error message quotes an exact value of more digits than the limit."""
        digits = TestLongResults.DIGITS
        steep = Fraction(10**digits + 1, 10**digits)  # just above 1
        unit = build_space(["0", "1"], [[0, 1], [1, 0]], "0")
        far = build_space(["0", "1"], [[0, steep], [steep, 0]], "0")
        system = build_system(unit, [(1, 0)], [1])
        g = make_function(unit, [0, steep])
        # a distance and a value within the limit whose quotient is not
        wide = 10 ** (digits * 3 // 4)
        long_space = build_space(["0", "1"], [[0, wide + 1], [wide + 1, 0]], "0")
        g_doc = {"values": {"0": 0, "1": f"1/{wide + 3}"}, "lip": 1}
        return {
            "verify_norming": lambda: verify_norming(unit, system, g),
            "stability_holds": lambda: differentiability.verify_stability(unit, system, g, 1),
            "extend_upper": lambda: extend_upper(
                unit, PartialFunction({0: Fraction(0), 1: steep})),
            "build_on_N": lambda: build_on_N(
                far, [(1, 0), (0, 1)], closure(BetaMatrix(beta=((0, 0), (0, 0))))),
            "recheck_witness": lambda: recheck_witness(
                BetaMatrix(beta=((0, -steep), (0, 0))),
                NegativeCycleWitness(cycle=(0, 1), sum=Fraction(-1))),
            "load_function_doc": lambda: load_function_doc(long_space, g_doc),
        }

    @pytest.mark.skipif(not DIGITS, reason="no int digit limit")
    @pytest.mark.parametrize("call", ["verify_norming", "stability_holds", "extend_upper",
                                      "build_on_N", "recheck_witness", "load_function_doc"])
    def test_library_messages_quote_values_of_any_length(self, call):
        with pytest.raises(LipfreeError) as raised:
            self.long_messages()[call]()
        sys.set_int_max_str_digits(0)
        try:
            message = str(raised.value)
        finally:
            sys.set_int_max_str_digits(self.DIGITS)
        assert len(message) > self.DIGITS


def test_public_api_exports_no_submodules():
    import types

    import lipfree

    assert all(
        not isinstance(getattr(lipfree, name), types.ModuleType)
        for name in lipfree.__all__
    )
    assert "free_norm" in lipfree.__all__
