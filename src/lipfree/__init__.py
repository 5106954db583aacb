"""Exact decision procedures for the geometry of Lipschitz-free spaces
over finite pointed metric spaces: norms with primal/dual certificates,
norm attainment of weighted molecule families, norming-function
construction, and Gateaux/Frechet differentiability verdicts.

Importing the package loads no submodule: each public name is imported from
its module on first access (PEP 562), so a command pays only for the modules
it uses.
"""

from importlib import import_module

# module -> the public names it provides, in the order of ``__all__``
_MODULES = {
    "differentiability": (
        "DiffVerdict",
        "GateauxEpsReport",
        "L1Verdict",
        "NonUniqueOnN",
        "NotAttaining",
        "StabilityBound",
        "Uncovered",
        "VerdictKind",
        "check_gateaux_eps",
        "coverage_eps_prefix",
        "decide",
        "l1_basis_check",
        "min_coverage_slack",
        "recheck_verdict",
        "stability_bound",
        "verify_stability",
    ),
    "errors": (
        "CertificateMismatchError",
        "InputError",
        "InvalidSpaceError",
        "LipfreeError",
        "NotAttainingError",
        "ResourceLimitError",
    ),
    "generators": (
        "gen_c0_truncation",
        "gen_line",
        "gen_random",
        "gen_star",
        "repair_to_metric",
    ),
    "metric": (
        "FiniteMetricSpace",
        "ValidationReport",
        "build_space",
        "segment",
        "segment_eps",
        "validate_space",
    ),
    "molecules": (
        "BetaMatrix",
        "MoleculeSystem",
        "PointMassElement",
        "beta_matrix",
        "build_system",
        "element_from_coeffs",
        "to_point_masses",
    ),
    "norming": (
        "LipschitzFunction",
        "PartialFunction",
        "build_on_N",
        "extend_lower",
        "extend_upper",
        "lipschitz_constant",
        "make_function",
        "verify_norming",
    ),
    "oracles": (
        "brute_cycles",
        "brute_dual_norm",
        "brute_norming_uniqueness",
        "dual_vertices",
    ),
    "potentials": (
        "MonotonicityVerdict",
        "NegativeCycleWitness",
        "PotentialTable",
        "check_cyclical_monotonicity",
        "closure",
        "cycle_sum",
        "recheck_witness",
    ),
    "transport": (
        "TransportCertificate",
        "attains",
        "decompose_to_molecules",
        "dual_objective",
        "free_norm",
        "recheck_certificate",
    ),
}
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names}

__version__ = "0.1.0"

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
