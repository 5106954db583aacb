"""Strict document keys and string pair labels, through the command line.

Every loader refuses a key outside the keys lipfree prints for its kind of
document, and a stated derived value (``total_weight``, ``lip``,
``base_pinned``) must equal the recomputed one. So a report of one command
can be fed to another, and a misspelt key is an input error.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

import lipfree.cli as cli
from lipfree.errors import InputError
from lipfree.serialization import (
    function_to_doc,
    load_function_doc,
    load_space_doc,
    load_system_doc,
)
from test_golden import CASES, GOLDEN, argv_of

INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"
TRI = {"labels": ["0", "a", "b"], "base": "0", "dist": [[0, 2, 1], [2, 0, 2], [1, 2, 0]]}


def run(capsys, *argv):
    argv = [str(INPUTS / a) if a.endswith(".json") and "/" not in a else a for a in argv]
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, doc) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestUnknownKeys:
    @pytest.mark.parametrize(
        "argv,flag,doc,key",
        [
            (["validate"], "--space",
             {"labels": ["0", "1"], "base": "0", "dist": [[0, 1], [1, 0]], "bsae": "1"},
             "bsae"),
            (["decide", "--space", "c06.json"], "--system",
             {"pairs": [["1", "0"]], "weights": [1], "wieghts": [5]}, "wieghts"),
            (["l1-check", "--space", "line.json"], "--system",
             {"pairs": [["1", "0"]], "pair": [["2", "0"]]}, "pair"),
            (["norm", "--space", "line.json"], "--element",
             {"coeffs": {"1": 1}, "coefs": {"2": 5}}, "coefs"),
            (["stability", "--space", "star3.json", "--system", "star3_sys.json",
              "--eps", "1/16"], "--function",
             {"values": {"0": 0, "1": 1, "2": 1, "3": 1}, "lipschitz": 7}, "lipschitz"),
        ],
        ids=["space", "system", "pairs", "element", "function"],
    )
    def test_misspelt_key_is_input_error(self, capsys, tmp_path, argv, flag, doc, key):
        code, out, err = run(capsys, *argv, flag, write(tmp_path, "doc.json", doc))
        assert code == 2
        assert out == ""
        assert repr(key) in err

    def test_library_loaders_name_the_allowed_keys(self):
        with pytest.raises(InputError, match="allowed: labels, base, dist"):
            load_space_doc({**TRI, "name": "tri"})
        space = load_space_doc(TRI)
        with pytest.raises(InputError, match="allowed: pairs, weights, total_weight"):
            load_system_doc(space, {"pairs": [["a", "0"]], "weights": [1], "w": 1})
        with pytest.raises(InputError, match="allowed: values, lip, base_pinned"):
            load_function_doc(space, {"values": {"0": 0, "a": 0, "b": 0}, "v": {}})


class TestReportsFeedBack:
    def test_decompose_report_is_a_system_for_attains(self, capsys, tmp_path):
        code, out, _ = run(capsys, "decompose", "--space", "rand40.json",
                           "--element", "rand40_elem.json")
        assert code == 0
        assert "total_weight" in json.loads(out)
        system = tmp_path / "decomposed.json"
        system.write_text(out)
        code, out, err = run(capsys, "attains", "--space", "rand40.json",
                             "--system", str(system))
        assert code == 0, err
        report = json.loads(out)
        assert report["attains"] is True
        assert report["norm"] == report["total_weight"]

    def test_norming_upper_is_a_function_for_stability(self, capsys, tmp_path):
        code, out, _ = run(capsys, "norming", "--space", "star3.json",
                           "--system", "star3_sys.json")
        assert code == 0
        upper = json.loads(out)["upper"]
        assert set(upper) == {"values", "lip", "base_pinned"}
        code, out, err = run(capsys, "stability", "--space", "star3.json",
                             "--system", "star3_sys.json",
                             "--function", write(tmp_path, "upper.json", upper),
                             "--eps", "1/16")
        assert code == 0, err
        assert json.loads(out)["verified"] is True


def function_docs(node):
    """Every object at any depth of a report with the keys of a printed function."""
    if isinstance(node, dict) and set(node) == {"values", "lip", "base_pinned"}:
        yield node
    children = node.values() if isinstance(node, dict) else node if isinstance(node, list) else ()
    for child in children:
        yield from function_docs(child)


def prints_a_function(name):
    return '"base_pinned"' in (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


# the goldens of a verdict on a valid space; validate also reads spaces that are no metric
PRINTED = [(name, argv_of(template)[template.index("--space") + 1])
           for name, template, code in CASES
           if code in (0, 1) and "--space" in template and template[0] != "validate"
           and prints_a_function(name)]


@pytest.mark.parametrize("name,space_path", PRINTED, ids=[name for name, _ in PRINTED])
def test_every_printed_function_loads_back(name, space_path):
    """Each function a golden prints passes ``load_function_doc`` on its space,
    stated ``lip`` and ``base_pinned`` included, and renders back the same."""
    space = load_space_doc(json.loads(Path(space_path).read_text(encoding="utf-8")))
    text = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    docs = list(function_docs(json.loads(text)))
    assert len(docs) == text.count('"base_pinned"'), name
    for doc in docs:
        assert function_to_doc(space, load_function_doc(space, doc)) == doc


def test_every_golden_that_prints_a_function_is_read_back():
    printing = {name for name, _, _ in CASES if prints_a_function(name)}
    assert printing and printing == {name for name, _ in PRINTED}


class TestStatedValues:
    def test_wrong_total_weight_is_input_error(self, capsys, tmp_path):
        doc = {"pairs": [["1", "0"], ["2", "0"]], "weights": ["1/2", "1/2"],
               "total_weight": "3/2"}
        code, _, err = run(capsys, "attains", "--space", "star2.json",
                           "--system", write(tmp_path, "sys.json", doc))
        assert code == 2
        assert "stated total weight 3/2 != recomputed 1" in err

    @pytest.mark.parametrize("pinned,message", [
        (False, "stated base_pinned False != recomputed True"),
        ("true", "base_pinned must be true or false"),
        (1, "base_pinned must be true or false"),
    ])
    def test_wrong_base_pinned_is_input_error(self, capsys, tmp_path, pinned, message):
        doc = {"values": {"0": 0, "1": 1, "2": 1, "3": 1}, "base_pinned": pinned}
        code, _, err = run(capsys, "stability", "--space", "star3.json",
                           "--system", "star3_sys.json",
                           "--function", write(tmp_path, "g.json", doc), "--eps", "1/16")
        assert code == 2
        assert message in err

    def test_stated_values_that_agree_are_accepted(self):
        space = load_space_doc(TRI)
        system = load_system_doc(space, {"pairs": [["a", "0"], ["b", "0"]],
                                         "weights": [1, "1/2"], "total_weight": "3/2"})
        assert system.total_weight == Fraction(3, 2)
        f = load_function_doc(space, {"values": {"0": 0, "a": 1, "b": 1},
                                      "lip": 1, "base_pinned": True})
        assert f.values[space.base] == 0


class TestPairLabels:
    # labels that str() of an int, a boolean and a float would produce, so
    # reading pairs through str() finds a point for each and exits 0 or 1
    STAR = {"labels": ["0", "1", "True", "1.0"], "base": "0",
            "dist": [[0, 1, 1, 1], [1, 0, 2, 2], [1, 2, 0, 2], [1, 2, 2, 0]]}

    @pytest.mark.parametrize("label", [1, True, 1.0], ids=["int", "bool", "float"])
    @pytest.mark.parametrize("command", ["decide", "l1-check"])
    def test_non_string_label_is_input_error(self, capsys, tmp_path, command, label):
        doc = {"pairs": [[label, "0"], ["0", "1"]], "weights": ["1/2", "1/2"]}
        code, out, err = run(capsys, command,
                             "--space", write(tmp_path, "star.json", self.STAR),
                             "--system", write(tmp_path, "sys.json", doc))
        assert code == 2
        assert out == ""
        assert "pair 0 must be a two-element list of string labels" in err
