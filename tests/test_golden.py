"""Byte-for-byte CLI goldens: the exact stdout and exit code of fixed invocations.

``CASES`` is the only list of goldens: this file checks each case through
``cli.main``, criterion 7 of ``tests/test_acceptance.py`` twice in one
process, ``tests/test_process.py`` as a ``python -m lipfree.cli`` process
from the source tree, and CI through the installed ``lipfree`` script and
``python -m lipfree.cli``. Inputs live in
``tests/golden/inputs/`` and the expected stdout of case ``name`` in
``tests/golden/<name>.out``.

After a deliberate, declared change of output, rewrite the files with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
import random
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

import lipfree.cli as cli
from lipfree import build_space, build_system, gen_c0_truncation, gen_random, gen_star
from lipfree.serialization import render_rational, space_to_doc, system_to_doc

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"

# (case name, argv with {input} placeholders, exit code)
CASES = [
    ("validate-tri", ["validate", "--space", "{tri}"], 0),
    ("validate-broken", ["validate", "--space", "{broken}"], 1),
    ("gen-star-8", ["gen", "--kind", "star", "--size", "8"], 0),
    ("gen-c0-6", ["gen", "--kind", "c0", "--size", "6"], 0),
    ("gen-random-5", ["gen", "--kind", "random", "--size", "5", "--seed", "3"], 0),
    ("gen-line-4", ["gen", "--kind", "line", "--size", "4"], 0),
    ("norm-tri-oracle", ["norm", "--space", "{tri}", "--element", "{elem}", "--oracle"], 0),
    ("attains-tri-bad", ["attains", "--space", "{tri}", "--system", "{sys_bad}", "--oracle"], 1),
    ("attains-star8", ["attains", "--space", "{star8}", "--system", "{star8_sys}"], 0),
    ("decompose-tri", ["decompose", "--space", "{tri}", "--element", "{elem}"], 0),
    ("potentials-tri-one", ["potentials", "--space", "{tri}", "--system", "{sys_one}", "--oracle"], 0),
    ("potentials-tri-bad", ["potentials", "--space", "{tri}", "--system", "{sys_bad}"], 1),
    ("norming-tri-one", ["norming", "--space", "{tri}", "--system", "{sys_one}"], 0),
    ("gateaux-eps-tri-one", ["gateaux-eps", "--space", "{tri}", "--system", "{sys_one}", "--eps", "1/2"], 1),
    ("decide-tri-one", ["decide", "--space", "{tri}", "--system", "{sys_one}", "--oracle"], 1),
    ("decide-c06", ["decide", "--space", "{c06}", "--system", "{c06_sys}"], 0),
    ("coverage-prefix-star5", ["coverage-prefix", "--space", "{star5}", "--system", "{star5_sys}", "--eps", "1/2"], 0),
    ("l1-check-line", ["l1-check", "--space", "{line}", "--system", "{line_pairs}"], 1),
    ("l1-check-star8", ["l1-check", "--space", "{star8}", "--system", "{star8_sys}"], 0),
    ("l1-check-star8-short", ["l1-check", "--space", "{star8_short}", "--system", "{star8_short_pairs}"], 1),
    ("stability-star3", ["stability", "--space", "{star3}", "--system", "{star3_sys}"], 0),
    # seeded spaces with mixed denominators
    ("validate-rand20-broken", ["validate", "--space", "{rand20_broken}"], 1),
    ("norm-rand40-dense", ["norm", "--space", "{rand40}", "--element", "{rand40_elem}"], 0),
    ("attains-rand24-witness", ["attains", "--space", "{rand24}", "--system", "{rand24_sys}"], 1),
    ("potentials-rand16", ["potentials", "--space", "{rand16}", "--system", "{rand16_sys}"], 0),
    ("decide-rand16-frechet", ["decide", "--space", "{rand16}", "--system", "{rand16_sys}"], 0),
    ("decide-rand32-uncovered", ["decide", "--space", "{rand32}", "--system", "{rand32_sys}"], 1),
    ("gateaux-eps-rand32", ["gateaux-eps", "--space", "{rand32}", "--system", "{rand32_sys}", "--eps", "1/8"], 1),
    ("coverage-prefix-rand16", ["coverage-prefix", "--space", "{rand16}", "--system", "{rand16_sys}", "--eps", "1"], 0),
    ("coverage-prefix-rand32", ["coverage-prefix", "--space", "{rand32}", "--system", "{rand32_sys}", "--eps", "1"], 0),
    ("coverage-prefix-rand32-eighth", ["coverage-prefix", "--space", "{rand32}", "--system", "{rand32_sys}", "--eps", "1/8"], 1),
    # oracle branches: a negative cycle, and each oracle at its size cap
    ("potentials-tri-bad-oracle", ["potentials", "--space", "{tri}", "--system", "{sys_bad}", "--oracle"], 1),
    ("decide-star5-oracle", ["decide", "--space", "{star5}", "--system", "{star5_sys}", "--oracle"], 0),
    ("attains-star8-oracle", ["attains", "--space", "{star8}", "--system", "{star8_sys}", "--oracle"], 0),
    # stability with a candidate function: the hypothesis holds, it fails
    # (vacuously verified), and each of the two input checks on the function
    ("stability-star3-near", ["stability", "--space", "{star3}", "--system", "{star3_sys}",
                              "--function", "{star3_g_near}", "--eps", "1/16"], 0),
    ("stability-star3-vacuous", ["stability", "--space", "{star3}", "--system", "{star3_sys}",
                                 "--function", "{star3_g_zero}", "--eps", "1/16"], 0),
    ("stability-star3-steep", ["stability", "--space", "{star3}", "--system", "{star3_sys}",
                               "--function", "{star3_g_steep}", "--eps", "1/16"], 2),
    ("stability-star3-off-base", ["stability", "--space", "{star3}", "--system", "{star3_sys}",
                                  "--function", "{star3_g_off_base}", "--eps", "1/16"], 2),
    # ten anchored pairs: all 512 orientations, and a short pair (1, 2) that
    # first fails with the second pair flipped alone
    ("l1-check-star10", ["l1-check", "--space", "{star10}", "--system", "{star10_pairs}"], 0),
    ("l1-check-star10-short12", ["l1-check", "--space", "{star10_short12}",
                                 "--system", "{star10_pairs}"], 1),
    # five pairs of which only {0, 2} and {1, 3} are rigid, and attainment
    # on the star whose every orientation is cyclically monotone
    ("potentials-rand16-rigid", ["potentials", "--space", "{rand16}",
                                 "--system", "{rand16_rigid_sys}"], 0),
    ("attains-star10", ["attains", "--space", "{star10}", "--system", "{star10_pairs}"], 0),
    # both extensions, theta and diameter, and eps slacks over mixed
    # denominators, the eps denominator 61 dividing no distance's
    ("norming-rand32", ["norming", "--space", "{rand32}", "--system", "{rand32_sys}"], 0),
    ("validate-rand40", ["validate", "--space", "{rand40}"], 0),
    ("gateaux-eps-rand32-coprime", ["gateaux-eps", "--space", "{rand32}",
                                    "--system", "{rand32_sys}", "--eps", "3/61"], 1),
    # unequal weights: <g, mu> = 999/1000 exceeds 1 - eps / min(w) but not
    # 1 - eps * min(w), so the gap 1/10 > K * eps = 1/250 is no counterexample
    ("stability-star2-unequal", ["stability", "--space", "{star2}", "--system", "{star2_sys}",
                                 "--function", "{star2_g}", "--eps", "1/10000"], 0),
    # plans and duals where shortest-path ties decide the search: equal
    # distances on the star and exact segments on the line
    ("norm-star10-mixed", ["norm", "--space", "{star10}", "--element", "{star10_elem}"], 0),
    ("norm-line-alternating", ["norm", "--space", "{line}", "--element", "{line_elem}"], 0),
    ("decompose-rand40", ["decompose", "--space", "{rand40}", "--element", "{rand40_elem}"], 0),
    # the zero element: no leg, a dual of constant 0, re-checked like any other
    ("norm-tri-zero", ["norm", "--space", "{tri}", "--element", "{zero}"], 0),
    # decide's not_attaining and non_unique_on_n reports, and norming on a
    # negative cycle
    ("decide-tri-bad", ["decide", "--space", "{tri}", "--system", "{sys_bad}"], 1),
    ("decide-rand16-non-unique", ["decide", "--space", "{rand16}",
                                  "--system", "{rand16_rigid_sys}"], 1),
    ("norming-tri-bad", ["norming", "--space", "{tri}", "--system", "{sys_bad}"], 1),
]


def argv_of(template):
    return [str(INPUTS / (arg[1:-1] + ".json")) if arg.startswith("{") else arg
            for arg in template]


@pytest.mark.parametrize("name,template,expected", CASES, ids=[c[0] for c in CASES])
def test_cli_golden(name, template, expected, capsys):
    code = cli.main(argv_of(template))
    out = capsys.readouterr().out
    assert code == expected, (name, code)
    assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8"), name


def test_cases_are_the_golden_files():
    names = [name for name, _, _ in CASES]
    assert len(names) == len(set(names))
    assert set(names) == {path.stem for path in GOLDEN.glob("*.out")}


# ---------------------------------------------------------------- regeneration


def _weights(rng, count, normalized):
    weights = [Fraction(rng.randint(1, 64), rng.randint(1, 64)) for _ in range(count)]
    if normalized:
        total = sum(weights)
        weights = [w / total for w in weights]
    return weights


def _anchored(space, count):
    weights = [Fraction(1, 2**n) for n in range(1, count + 1)]
    total = sum(weights)
    return system_to_doc(space, build_system(
        space, [(n, 0) for n in range(1, count + 1)], [w / total for w in weights]))


def _short_star(k, a, b):
    """Star with d(p, 0) = 1 + 1/(p + 1) and every other distance through the
    base, except d(a, b), which is 1/7 shorter: only pairs anchored at a and
    b in opposite orientations fail to be cyclically monotone."""
    r = [Fraction(0)] + [1 + Fraction(1, p + 1) for p in range(1, k + 1)]
    dist = [[Fraction(0) if i == j else r[i] + r[j] for j in range(k + 1)]
            for i in range(k + 1)]
    dist[a][b] = dist[b][a] = r[a] + r[b] - Fraction(1, 7)
    return build_space([str(p) for p in range(k + 1)], dist, "0")


def input_docs():
    """Every input document, built from the package's generators."""
    star8, star5, star3, c06 = gen_star(8), gen_star(5), gen_star(3), gen_c0_truncation(6)
    docs = {
        "tri": {"labels": ["0", "a", "b"], "base": "0",
                "dist": [[0, 2, 1], [2, 0, 2], [1, 2, 0]]},
        "broken": {"labels": ["0", "1", "2"], "base": "0",
                   "dist": [[0, 1, 4], [1, 0, 1], [4, 1, 0]]},
        "line": {"labels": ["0", "1", "2"], "base": "0",
                 "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]},
        "elem": {"coeffs": {"a": "1/4", "b": "-1/2"}},
        "zero": {"coeffs": {}},
        "sys_one": {"pairs": [["a", "0"]], "weights": [1]},
        "sys_bad": {"pairs": [["a", "0"], ["0", "b"]], "weights": ["1/2", "1/2"]},
        "line_pairs": {"pairs": [["1", "0"], ["2", "0"]]},
        "star3_g_near": {"values": {"0": 0, "1": 1, "2": 1, "3": "3/4"}},
        "star3_g_zero": {"values": {"0": 0, "1": 0, "2": 0, "3": 0}},
        "star3_g_steep": {"values": {"0": 0, "1": 2, "2": 0, "3": 0}},
        "star3_g_off_base": {"values": {"0": 1, "1": 1, "2": 1, "3": 1}},
        "star2_sys": {"pairs": [["1", "0"], ["2", "0"]], "weights": ["1/100", "99/100"]},
        "star2_g": {"values": {"0": 0, "1": "9/10", "2": 1}},
        "line_elem": {"coeffs": {"1": "-3/2", "2": "5/2"}},
        "star10_elem": {"coeffs": {
            str(p): render_rational(Fraction((-1) ** p * (p % 4 + 1), p % 3 + 1))
            for p in range(1, 11)}},
    }
    docs["star2"] = space_to_doc(gen_star(2))
    for name, space, count in (("star8", star8, 8), ("star5", star5, 5),
                               ("star3", star3, 3), ("c06", c06, 6)):
        docs[name] = space_to_doc(space)
        docs[name + "_sys"] = _anchored(space, count)

    # the short pair comes first and second, so the first failing orientation
    # flips the second pair alone: rank 64 of the 128 the walk enumerates
    star8_short = _short_star(8, 5, 2)
    docs["star8_short"] = space_to_doc(star8_short)
    docs["star8_short_pairs"] = {"pairs": [["5", "0"], ["2", "0"], ["7", "0"], ["0", "1"],
                                           ["4", "0"], ["8", "0"], ["3", "0"], ["6", "0"]]}

    star10 = gen_star(10)
    docs["star10"] = space_to_doc(star10)
    short12 = [list(row) for row in star10.dist]
    short12[1][2] = short12[2][1] = Fraction(3, 2)
    docs["star10_short12"] = space_to_doc(build_space(list(star10.labels), short12, "0"))
    docs["star10_pairs"] = {"pairs": [[str(p), "0"] for p in range(1, 11)],
                            "weights": ["1/10"] * 10}

    broken = space_to_doc(gen_random(20, 3))
    rng = random.Random("golden-rand20-broken")
    for _ in range(4):
        i, j = rng.sample(range(20), 2)
        short = render_rational(Fraction(broken["dist"][i][j]) / 3)
        broken["dist"][i][j] = broken["dist"][j][i] = short
    docs["rand20_broken"] = broken

    rand40 = gen_random(40, 7)
    rng = random.Random("golden-rand40-elem")
    docs["rand40"] = space_to_doc(rand40)
    docs["rand40_elem"] = {"coeffs": {
        rand40.labels[p]: render_rational(
            Fraction(rng.choice([-1, 1]) * rng.randint(1, 64), rng.randint(1, 64)))
        for p in rand40.points() if p != rand40.base}}

    rand24 = gen_random(24, 11)
    rng = random.Random("golden-rand24-sys")
    pairs = [tuple(rng.sample(range(24), 2)) for _ in range(10)]
    docs["rand24"] = space_to_doc(rand24)
    docs["rand24_sys"] = system_to_doc(
        rand24, build_system(rand24, pairs, _weights(rng, 10, False)))

    rand16 = gen_random(16, 5)
    rng = random.Random("golden-rand16-sys")
    docs["rand16"] = space_to_doc(rand16)
    docs["rand16_sys"] = system_to_doc(rand16, build_system(
        rand16, [(p, 0) for p in range(1, 16)], _weights(rng, 15, True)))
    docs["rand16_rigid_sys"] = {
        "pairs": [["5", "4"], ["13", "7"], ["15", "5"], ["3", "7"], ["6", "10"]],
        "weights": ["1/5"] * 5}

    rand32 = gen_random(32, 13, "near-degenerate")
    rng = random.Random("golden-rand32-sys")
    chosen = sorted(rng.sample(range(1, 32), 20))
    docs["rand32"] = space_to_doc(rand32)
    docs["rand32_sys"] = system_to_doc(rand32, build_system(
        rand32, [(p, 0) for p in chosen], _weights(rng, 20, True)))
    return docs


def regenerate() -> None:
    INPUTS.mkdir(parents=True, exist_ok=True)
    for name, doc in input_docs().items():
        (INPUTS / f"{name}.json").write_text(json.dumps(doc) + "\n", encoding="utf-8")
    for name, template, expected in CASES:
        with open(GOLDEN / f"{name}.out", "w", encoding="utf-8") as out:
            with redirect_stdout(out):
                code = cli.main(argv_of(template))
        if code != expected:
            raise SystemExit(f"{name}: exit {code}, expected {expected}")


if __name__ == "__main__":
    regenerate()
