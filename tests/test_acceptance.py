"""Release acceptance suite.

One test per criterion, each enforced at its exact tolerance (rational
equality unless stated otherwise) and ending with a single printed PASS line;
run with ``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import json
import random
import time
from fractions import Fraction

import pytest

import lipfree.cli as cli
from lipfree import (
    Uncovered,
    VerdictKind,
    beta_matrix,
    brute_cycles,
    brute_dual_norm,
    brute_norming_uniqueness,
    build_system,
    check_cyclical_monotonicity,
    check_gateaux_eps,
    decide,
    dual_objective,
    dual_vertices,
    free_norm,
    gen_c0_truncation,
    gen_star,
    make_function,
    min_coverage_slack,
    recheck_certificate,
    recheck_verdict,
    recheck_witness,
    stability_bound,
    to_point_masses,
    verify_norming,
    verify_stability,
)
from _instances import random_space, random_system

ATTAINMENT_SEED = 1003
DIFFERENTIABILITY_SEED = 2003
STABILITY_SEED = 3003


def _passed(number: int, detail: str) -> None:
    print(f"ACCEPTANCE criterion {number}: PASS ({detail})")


def normalized_weights(count):
    weights = [Fraction(1, 2**n) for n in range(1, count + 1)]
    total = sum(weights)
    return [w / total for w in weights]


def anchored_system(space, count):
    return build_system(
        space, [(n, 0) for n in range(1, count + 1)], normalized_weights(count)
    )


@pytest.fixture(scope="module")
def attainment_instances():
    rng = random.Random(ATTAINMENT_SEED)
    instances = []
    for _ in range(1000):
        space = random_space(rng, min_points=2, max_points=6)
        system = random_system(rng, space, max_pairs=5)
        instances.append((space, system))
    return instances


def test_criterion_1_attainment_equivalence(attainment_instances):
    started = time.monotonic()
    for index, (space, system) in enumerate(attainment_instances):
        attained = (
            free_norm(space, to_point_masses(space, system)).value
            == system.total_weight
        )
        monotone = check_cyclical_monotonicity(space, system.pairs).holds
        min_sum, _ = brute_cycles(beta_matrix(space, system.pairs))
        assert attained == monotone == (min_sum >= 0), (
            f"instance {index}: attains={attained} monotone={monotone} "
            f"brute min sum={min_sum}"
        )
    elapsed = time.monotonic() - started
    assert elapsed < 30, f"criterion 1 took {elapsed:.1f}s, budget is 30s"
    _passed(1, f"1000 instances, three-way agreement, {elapsed:.1f}s")


def test_criterion_2_zero_duality_gap(attainment_instances):
    for index, (space, system) in enumerate(attainment_instances):
        element = to_point_masses(space, system)
        cert = free_norm(space, element)
        plan_cost = sum((m * space.d(s, t) for s, t, m in cert.plan), Fraction(0))
        dual_value = dual_objective(space, element, cert.dual.values)
        assert plan_cost == cert.value == dual_value, f"instance {index}: gap"
        assert cert.value == brute_dual_norm(space, element), (
            f"instance {index}: vertex sweep disagrees with solver"
        )
    _passed(2, "1000 certificates, exact gap zero, vertex sweep agrees")


def test_criterion_3_differentiability_oracle():
    rng = random.Random(DIFFERENTIABILITY_SEED)
    frechet_count = 0
    for index in range(500):
        space = random_space(rng, min_points=2, max_points=6)
        system = random_system(rng, space, max_pairs=5, normalized=True)
        verdict = decide(space, system)
        is_frechet = verdict.kind is VerdictKind.FRECHET
        frechet_count += is_frechet
        assert is_frechet == brute_norming_uniqueness(space, system), (
            f"instance {index}: decide={verdict.kind}, oracle disagrees "
            f"(space={space.labels}, pairs={system.pairs})"
        )
    assert frechet_count > 0
    _passed(3, f"500 systems, zero disagreements, {frechet_count} Frechet")


def test_criterion_4_fixture_verdicts():
    # (a) star of eight satellites with geometric weights
    star = gen_star(8)
    star_sys = anchored_system(star, 8)
    verdict = decide(star, star_sys)
    assert verdict.kind is VerdictKind.FRECHET
    assert verdict.norming.values[0] == 0
    assert all(verdict.norming.values[p] == 1 for p in range(1, 9))
    from lipfree import l1_basis_check

    assert l1_basis_check(star, star_sys.pairs).isometric

    # (b) sup-norm truncation: the norming function is distance to base
    c0 = gen_c0_truncation(6)
    c0_sys = anchored_system(c0, 6)
    verdict = decide(c0, c0_sys)
    assert verdict.kind is VerdictKind.FRECHET
    assert all(verdict.norming.values[p] == c0.d(p, 0) for p in c0.points())

    # (c) three-point uncovered fixture with extension gap exactly 1
    from lipfree import build_on_N, build_space, extend_lower, extend_upper

    tri = build_space(["0", "a", "b"], [[0, 2, 1], [2, 0, 2], [1, 2, 0]], "0")
    tri_sys = build_system(tri, [(1, 0)], [1])
    verdict = decide(tri, tri_sys)
    assert verdict.kind is VerdictKind.NOT_GATEAUX
    assert verdict.failure == Uncovered(point=2)
    table = check_cyclical_monotonicity(tri, tri_sys.pairs).table
    partial = build_on_N(tri, tri_sys.pairs, table)
    gap = extend_upper(tri, partial).values[2] - extend_lower(tri, partial).values[2]
    assert gap == 1
    _passed(4, "star(8), c0(6), and uncovered fixtures all exact")


def test_criterion_5_stability_bound():
    rng = random.Random(STABILITY_SEED)
    eps_grid = [Fraction(1, 2**k) for k in range(4, 11)]
    for space, system in (
        (gen_star(3), anchored_system(gen_star(3), 3)),
        (gen_c0_truncation(4), anchored_system(gen_c0_truncation(4), 4)),
    ):
        verdict = decide(space, system)
        assert verdict.kind is VerdictKind.FRECHET
        f = verdict.norming
        vertices = dual_vertices(space)
        bound = stability_bound(space, system)
        checked = 0
        while checked < 1000:
            eps = eps_grid[checked % len(eps_grid)]
            delta = eps * min(system.weights)
            h_vals = vertices[rng.randrange(len(vertices))]
            scale = Fraction(rng.randint(1, 8), 32)
            s = delta * scale / 8
            g = make_function(
                space,
                [(1 - s) * f.values[p] + s * h_vals[p] for p in space.points()],
            )
            g_mu = sum(
                (
                    w * (g.values[x] - g.values[y]) / space.d(x, y)
                    for (x, y), w in zip(system.pairs, system.weights)
                ),
                Fraction(0),
            )
            if not g_mu > 1 - delta:
                continue
            checked += 1
            assert verify_stability(space, system, g, eps), (
                f"stability violated: eps={eps}, s={s}, gap bound {bound.K * eps}"
            )
    _passed(5, "2 fixtures x 1000 near-norming samples, zero violations")


def test_criterion_6_eps_consistency():
    eps_values = [Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]
    frechet_fixtures = [
        (gen_star(8), anchored_system(gen_star(8), 8)),
        (gen_c0_truncation(6), anchored_system(gen_c0_truncation(6), 6)),
        (gen_star(3), anchored_system(gen_star(3), 3)),
        (gen_c0_truncation(4), anchored_system(gen_c0_truncation(4), 4)),
    ]
    for space, system in frechet_fixtures:
        assert decide(space, system).kind is VerdictKind.FRECHET
        for eps in eps_values:
            report = check_gateaux_eps(space, system, eps)
            assert report.satisfied, (space.labels, eps)

    from lipfree import build_space

    tri = build_space(["0", "a", "b"], [[0, 2, 1], [2, 0, 2], [1, 2, 0]], "0")
    uncovered_fixtures = [(tri, build_system(tri, [(1, 0)], [1]))]
    rng = random.Random(6006)
    while len(uncovered_fixtures) < 10:
        space = random_space(rng)
        system = random_system(rng, space, normalized=True)
        if not check_cyclical_monotonicity(space, system.pairs).holds:
            continue
        verdict = decide(space, system)
        if isinstance(verdict.failure, Uncovered):
            uncovered_fixtures.append((space, system))
    for space, system in uncovered_fixtures:
        verdict = decide(space, system)
        point = verdict.failure.point
        slack = min_coverage_slack(space, system, point)
        assert slack > 0
        report = check_gateaux_eps(space, system, slack / 2)
        assert point in report.cond_ii, (space.labels, system.pairs, point)
    _passed(6, f"{len(frechet_fixtures)} Frechet + {len(uncovered_fixtures)} uncovered fixtures")


def test_criterion_7a_certificate_reverification():
    rng = random.Random(7007)
    transport_count = verdict_count = witness_count = 0
    for _ in range(200):
        space = random_space(rng)
        system = random_system(rng, space, normalized=True)
        element = to_point_masses(space, system)
        cert = free_norm(space, element)
        recheck_certificate(space, element, cert)
        transport_count += 1
        verdict = decide(space, system)
        recheck_verdict(space, system, verdict)
        verdict_count += 1
        monotone = check_cyclical_monotonicity(space, system.pairs)
        if not monotone.holds:
            recheck_witness(beta_matrix(space, system.pairs), monotone.witness)
            witness_count += 1
        if verdict.kind is VerdictKind.FRECHET:
            assert verify_norming(space, system, verdict.norming)
    _passed(
        7,
        f"re-verified {transport_count} transport certificates, "
        f"{verdict_count} verdicts, {witness_count} cycle witnesses",
    )


@pytest.fixture()
def golden_docs(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def space_doc(space):
        from lipfree.serialization import space_to_doc

        return space_to_doc(space)

    def system_doc(space, system):
        from lipfree.serialization import system_to_doc

        return system_to_doc(space, system)

    tri = {
        "labels": ["0", "a", "b"],
        "base": "0",
        "dist": [[0, 2, 1], [2, 0, 2], [1, 2, 0]],
    }
    broken = {
        "labels": ["0", "1", "2"],
        "base": "0",
        "dist": [[0, 1, 4], [1, 0, 1], [4, 1, 0]],
    }
    line = {
        "labels": ["0", "1", "2"],
        "base": "0",
        "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]],
    }
    star8 = gen_star(8)
    star5 = gen_star(5)
    star3 = gen_star(3)
    c06 = gen_c0_truncation(6)
    return {
        "tri": write("tri.json", tri),
        "broken": write("broken.json", broken),
        "line": write("line.json", line),
        "elem": write("elem.json", {"coeffs": {"a": "1/4", "b": "-1/2"}}),
        "sys_one": write("sys_one.json", {"pairs": [["a", "0"]], "weights": [1]}),
        "sys_bad": write(
            "sys_bad.json",
            {"pairs": [["a", "0"], ["0", "b"]], "weights": ["1/2", "1/2"]},
        ),
        "line_pairs": write(
            "line_pairs.json", {"pairs": [["1", "0"], ["2", "0"]]}
        ),
        "star8": write("star8.json", space_doc(star8)),
        "star8_sys": write(
            "star8_sys.json", system_doc(star8, anchored_system(star8, 8))
        ),
        "star5": write("star5.json", space_doc(star5)),
        "star5_sys": write(
            "star5_sys.json", system_doc(star5, anchored_system(star5, 5))
        ),
        "star3": write("star3.json", space_doc(star3)),
        "star3_sys": write(
            "star3_sys.json", system_doc(star3, anchored_system(star3, 3))
        ),
        "c06": write("c06.json", space_doc(c06)),
        "c06_sys": write("c06_sys.json", system_doc(c06, anchored_system(c06, 6))),
    }


def test_criterion_7b_cli_golden_matrix(golden_docs, capsys):
    d = golden_docs
    matrix = [
        (["validate", "--space", d["tri"]], 0),
        (["validate", "--space", d["broken"]], 1),
        (["gen", "--kind", "star", "--size", "8"], 0),
        (["gen", "--kind", "c0", "--size", "6"], 0),
        (["gen", "--kind", "random", "--size", "5", "--seed", "3"], 0),
        (["gen", "--kind", "line", "--size", "4"], 0),
        (["norm", "--space", d["tri"], "--element", d["elem"], "--oracle"], 0),
        (["attains", "--space", d["tri"], "--system", d["sys_bad"], "--oracle"], 1),
        (["attains", "--space", d["star8"], "--system", d["star8_sys"]], 0),
        (["decompose", "--space", d["tri"], "--element", d["elem"]], 0),
        (["potentials", "--space", d["tri"], "--system", d["sys_one"], "--oracle"], 0),
        (["potentials", "--space", d["tri"], "--system", d["sys_bad"]], 1),
        (["norming", "--space", d["tri"], "--system", d["sys_one"]], 0),
        (["gateaux-eps", "--space", d["tri"], "--system", d["sys_one"], "--eps", "1/2"], 1),
        (["decide", "--space", d["tri"], "--system", d["sys_one"], "--oracle"], 1),
        (["decide", "--space", d["c06"], "--system", d["c06_sys"]], 0),
        (["coverage-prefix", "--space", d["star5"], "--system", d["star5_sys"], "--eps", "1/2"], 0),
        (["l1-check", "--space", d["line"], "--system", d["line_pairs"]], 1),
        (["l1-check", "--space", d["star8"], "--system", d["star8_sys"]], 0),
        (["stability", "--space", d["star3"], "--system", d["star3_sys"]], 0),
    ]
    assert len(matrix) == 20
    for argv, expected in matrix:
        code_first = cli.main(list(argv))
        out_first = capsys.readouterr().out
        code_second = cli.main(list(argv))
        out_second = capsys.readouterr().out
        assert code_first == code_second == expected, (argv, code_first)
        assert out_first == out_second, f"unstable output for {argv}"
        assert out_first, f"no report printed for {argv}"
        json.loads(out_first)
    _passed(7, "20 golden CLI invocations, exit codes and bytes stable")
