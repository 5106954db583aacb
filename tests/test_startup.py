"""Start-up cost: what a ``lipfree`` process imports.

Every command runs in its own process, so modules a command does not use
cost it time, most of all where no ``.pyc`` files are written and each
module is compiled from source. These checks run in fresh interpreters,
because the test process itself has imported every module.
"""

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import lipfree

SRC = Path(__file__).resolve().parents[1] / "src"
INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"

# ``lipfree.__all__`` before the package became lazy; its order is part of the API
PUBLIC = [
    "DiffVerdict", "GateauxEpsReport", "L1Verdict", "NonUniqueOnN", "NotAttaining",
    "StabilityBound", "Uncovered", "VerdictKind", "check_gateaux_eps",
    "coverage_eps_prefix", "decide", "l1_basis_check", "min_coverage_slack",
    "recheck_verdict", "stability_bound", "verify_stability",
    "CertificateMismatchError", "InputError", "InvalidSpaceError", "LipfreeError",
    "NotAttainingError", "ResourceLimitError",
    "gen_c0_truncation", "gen_line", "gen_random", "gen_star", "repair_to_metric",
    "FiniteMetricSpace", "ValidationReport", "build_space", "segment", "segment_eps",
    "validate_space",
    "BetaMatrix", "MoleculeSystem", "PointMassElement", "beta_matrix", "build_system",
    "element_from_coeffs", "to_point_masses",
    "LipschitzFunction", "PartialFunction", "build_on_N", "extend_lower",
    "extend_upper", "lipschitz_constant", "make_function", "verify_norming",
    "brute_cycles", "brute_dual_norm", "brute_norming_uniqueness", "dual_vertices",
    "MonotonicityVerdict", "NegativeCycleWitness", "PotentialTable",
    "check_cyclical_monotonicity", "closure", "cycle_sum", "recheck_witness",
    "TransportCertificate", "attains", "decompose_to_molecules", "dual_objective",
    "free_norm", "recheck_certificate",
]

# Runs ``cli.main`` on argv[1:] and prints its exit code and the modules
# imported since the interpreter started, so site's own imports do not count.
# The set is taken before the probe imports ``json`` to print it.
CLI_SCRIPT = """
import sys
before = set(sys.modules)
import contextlib, io
with contextlib.redirect_stdout(io.StringIO()):
    from lipfree.cli import main
    code = main(sys.argv[1:])
loaded = sorted(set(sys.modules) - before)
import json
print(json.dumps({"code": code, "loaded": loaded}))
"""

# what ``--help`` and usage errors load of lipfree
DISPATCHER = {"lipfree", "lipfree.cli", "lipfree.errors"}


def fresh(script: str, *argv: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout)


def loaded_by(*argv: str, codes=(0, 1)) -> set:
    argv = [str(INPUTS / a) if a.endswith(".json") else a for a in argv]
    result = fresh(CLI_SCRIPT, *argv)
    assert result["code"] in codes
    return set(result["loaded"])


class TestCommandImports:
    @pytest.mark.parametrize(
        "argv",
        [
            ("decide", "--space", "c06.json", "--system", "c06_sys.json"),
            ("l1-check", "--space", "line.json", "--system", "line_pairs.json"),
        ],
        ids=["decide", "l1-check"],
    )
    def test_no_dataclasses_oracles_or_transport(self, argv):
        loaded = loaded_by(*argv)
        assert "lipfree.differentiability" in loaded
        assert not loaded & {"dataclasses", "inspect", "lipfree.oracles", "lipfree.transport"}

    @pytest.mark.parametrize(
        "argv",
        [
            ("norm", "--space", "tri.json", "--element", "elem.json"),
            ("decide", "--space", "c06.json", "--system", "c06_sys.json"),
            ("l1-check", "--space", "line.json", "--system", "line_pairs.json"),
        ],
        ids=["norm", "decide", "l1-check"],
    )
    def test_only_gen_loads_generators(self, argv):
        assert "lipfree.generators" not in loaded_by(*argv)
        assert "lipfree.generators" in loaded_by("gen", "--kind", "star", "--size", "2")

    def test_norm_loads_transport_and_oracles_only_when_asked(self):
        loaded = loaded_by("norm", "--space", "tri.json", "--element", "elem.json")
        assert "lipfree.transport" in loaded
        assert "lipfree.oracles" not in loaded
        with_oracle = loaded_by(
            "norm", "--space", "tri.json", "--element", "elem.json", "--oracle"
        )
        assert {"lipfree.transport", "lipfree.oracles"} <= with_oracle

    @pytest.mark.parametrize(
        "argv",
        [
            ("norm", "--space", "rand40.json", "--element", "rand40_elem.json"),
            ("validate", "--space", "tri.json"),
        ],
        ids=["norm", "validate"],
    )
    def test_no_differentiability_or_potentials(self, argv):
        loaded = loaded_by(*argv)
        assert "lipfree.serialization" in loaded
        assert not loaded & {"lipfree.differentiability", "lipfree.potentials"}

    @pytest.mark.parametrize(
        "argv",
        [
            ("attains", "--space", "rand24.json", "--system", "rand24_sys.json"),
            ("decompose", "--space", "tri.json", "--element", "elem.json"),
        ],
        ids=["attains", "decompose"],
    )
    def test_potentials_without_differentiability(self, argv):
        loaded = loaded_by(*argv)
        assert "lipfree.potentials" in loaded
        assert "lipfree.differentiability" not in loaded

    @pytest.mark.parametrize(
        "argv",
        [
            ("decide", "--space", "rand32.json", "--system", "rand32_sys.json"),
            ("l1-check", "--space", "line.json", "--system", "line_pairs.json"),
        ],
        ids=["decide", "l1-check"],
    )
    def test_differentiability_and_potentials(self, argv):
        assert {"lipfree.differentiability", "lipfree.potentials"} <= loaded_by(*argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ("norm", "--space", "tri.json", "--element", "elem.json"),
            ("decide", "--space", "c06.json", "--system", "c06_sys.json"),
            ("l1-check", "--space", "line.json", "--system", "line_pairs.json"),
            ("gen", "--kind", "star", "--size", "2"),
            ("validate", "--space", "tri.json"),
        ],
        ids=["norm", "decide", "l1-check", "gen", "validate"],
    )
    def test_a_well_formed_command_line_loads_no_argparse(self, argv):
        assert not loaded_by(*argv) & {"argparse", "gettext", "locale"}


class TestDispatcherImports:
    @pytest.mark.parametrize(
        "argv,code",
        [
            (("--help",), 0),
            (("decide", "--help"), 0),
            (("norm", "--space", "tri.json"), 2),
            (("frobnicate",), 2),
            ((), 2),
        ],
        ids=["help", "decide-help", "missing-flag", "unknown-command", "no-command"],
    )
    def test_loads_only_the_dispatcher(self, argv, code):
        loaded = loaded_by(*argv, codes=(code,))
        assert {m for m in loaded if m.partition(".")[0] == "lipfree"} == DISPATCHER
        assert not loaded & {"fractions", "json"}
        assert "argparse" in loaded  # the only writer of help and usage text


class TestLazyPackage:
    def test_import_loads_no_submodule(self):
        result = fresh(
            "import sys, json, lipfree; "
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('lipfree'))))"
        )
        assert result == ["lipfree"]

    def test_all_is_unchanged(self):
        assert lipfree.__all__ == PUBLIC

    def test_every_name_resolves_to_its_module(self):
        for module, names in lipfree._MODULES.items():
            source = import_module(f"lipfree.{module}")
            for name in names:
                assert getattr(lipfree, name) is getattr(source, name)

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from lipfree import *", namespace)
        assert set(PUBLIC) <= set(namespace)
        assert namespace["free_norm"] is lipfree.free_norm

    def test_dir_lists_every_name(self):
        assert set(PUBLIC) <= set(dir(lipfree))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError):
            lipfree.no_such_name
        assert not hasattr(lipfree, "frechet")
