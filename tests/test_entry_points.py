"""The library's entry points read each kind of input by one rule.

An index is an ``int`` (a ``bool`` is none) in ``range(n)``, the rule of
``metric.is_index``; a label is a ``str``; a count is an ``int``; an exact
value is an ``int`` or a ``Fraction``. Anything else is an input error, never
a value converted to the nearest thing that passes.
"""

from fractions import Fraction

import pytest

from lipfree import (
    InputError,
    MoleculeSystem,
    PointMassElement,
    beta_matrix,
    build_space,
    build_system,
    check_cyclical_monotonicity,
    decide,
    element_from_coeffs,
    free_norm,
    gen_c0_truncation,
    gen_line,
    gen_random,
    gen_star,
    l1_basis_check,
    lipschitz_constant,
    min_coverage_slack,
    recheck_certificate,
    segment,
    segment_eps,
    validate_space,
)
from lipfree.differentiability import stability_holds
from lipfree.metric import is_index
from lipfree.serialization import load_element_doc, load_function_doc

STAR = gen_star(3)
SYSTEM = build_system(STAR, [(1, 0), (2, 0)], [Fraction(1, 2)] * 2)
NOT_INDICES = [True, 1.0, 1.7, "2", -1, len(STAR)]


def pair_readers(pair):
    """Each entry point that reads a list of pairs, given ``[(1, 0), pair]``."""
    pairs = [(1, 0), pair]
    return {
        "build_system": lambda: build_system(STAR, pairs, [1, 1]),
        "beta_matrix": lambda: beta_matrix(STAR, pairs),
        "check_cyclical_monotonicity": lambda: check_cyclical_monotonicity(STAR, pairs),
        "l1_basis_check": lambda: l1_basis_check(STAR, pairs),
    }


def index_readers(p):
    """Each entry point that reads a point index, given ``p`` where one belongs."""
    return {
        **pair_readers((p, 0)),
        "element_from_coeffs": lambda: element_from_coeffs(STAR, {p: Fraction(1)}),
        "min_coverage_slack": lambda: min_coverage_slack(STAR, SYSTEM, p),
        "segment": lambda: segment(STAR, p, 0),
        "segment_eps": lambda: segment_eps(STAR, 0, p, Fraction(1)),
    }


INDEX_CASES = [(name, value) for value in NOT_INDICES for name in index_readers(0)]
PAIR_CASES = [(name, pair) for pair in [(2, 0, 3), 2] for name in pair_readers(0)]


def test_is_index_takes_ints_in_range_only():
    assert [is_index(p, 4) for p in range(4)] == [True] * 4
    assert not any(is_index(value, 4) for value in NOT_INDICES)


@pytest.mark.parametrize("name, value", INDEX_CASES,
                         ids=[f"{name}-{value!r}" for name, value in INDEX_CASES])
def test_a_point_index_must_be_an_int_in_range(name, value):
    with pytest.raises(InputError, match="out of range|must be distinct point indices"):
        index_readers(value)[name]()


@pytest.mark.parametrize("name, pair", PAIR_CASES,
                         ids=[f"{name}-{pair!r}" for name, pair in PAIR_CASES])
def test_a_pair_must_be_two_indices(name, pair):
    with pytest.raises(InputError, match="^pair 1: expected two point indices"):
        pair_readers(pair)[name]()


@pytest.mark.parametrize("read", [
    lambda: build_space([0, "1"], [[0, 1], [1, 0]], "0"),
    lambda: validate_space(["0", 1], [[0, 1], [1, 0]], "0"),
    lambda: load_element_doc(STAR, {"coeffs": {1: 1}}),
    lambda: load_function_doc(STAR, {"values": {0: 0, 1: 1, 2: 1, 3: 1}}),
], ids=["build-space", "validate-space", "element-key", "function-key"])
def test_a_label_must_be_a_string(read):
    with pytest.raises(InputError, match="labels must be strings|unknown point label"):
        read()


@pytest.mark.parametrize("make", [
    lambda: gen_star(True),
    lambda: gen_star(2.0),
    lambda: gen_line(2.0),
    lambda: gen_c0_truncation(2.0),
    lambda: gen_random(3.0, 1),
    lambda: gen_random(3, True),
    lambda: gen_random(3, 1.5),
    lambda: l1_basis_check(STAR, [(1, 0)], max_pairs=2.5),
    lambda: l1_basis_check(STAR, [(1, 0)], max_pairs=True),
    lambda: l1_basis_check(STAR, [(1, 0)], max_pairs="3"),
], ids=["star-bool", "star-float", "line-float", "c0-float", "random-points-float",
        "random-seed-bool", "random-seed-float", "max-pairs-float", "max-pairs-bool",
        "max-pairs-str"])
def test_a_count_must_be_an_int(make):
    with pytest.raises(InputError, match="expected an int"):
        make()


@pytest.mark.parametrize("values", [[0, 0.5, 1, 1], [0, True, 1, 1], [0, "1", 1, 1]],
                         ids=["float", "bool", "str"])
def test_lipschitz_constant_takes_exact_values_only(values):
    with pytest.raises(InputError, match="each an int or a Fraction"):
        lipschitz_constant(STAR, values)


def test_stability_refuses_a_norming_function_of_floats():
    system = build_system(STAR, [(p, 0) for p in (1, 2, 3)], [Fraction(1, 3)] * 3)
    g = decide(STAR, system).norming
    f = g.replace(values=(0, 1.0, 1.0, 0.99))
    with pytest.raises(InputError, match="each an int or a Fraction"):
        stability_holds(STAR, system, f, g, Fraction(1, 16))


def test_decide_takes_exact_weights_only():
    """A system built without ``build_system`` is read by the same rule."""
    decide(STAR, MoleculeSystem(pairs=((1, 0), (2, 0)), weights=(Fraction(1, 2),) * 2))
    decide(STAR, MoleculeSystem(pairs=((1, 0),), weights=(1,)))
    for weights in [(0.5, 0.5), (Fraction(1, 2), True)]:
        with pytest.raises(InputError, match="^each system weight must be an int or a Fraction"):
            decide(STAR, MoleculeSystem(pairs=((1, 0), (2, 0)), weights=weights))


@pytest.mark.parametrize("weights", [(2, -1), (1, 0)], ids=["negative", "zero"])
def test_decide_takes_positive_weights_only(weights):
    """A system built without ``build_system`` is refused as ``build_system``
    refuses it, though its weights sum to 1."""
    with pytest.raises(InputError, match="^weight 1 must be strictly positive$"):
        build_system(STAR, [(1, 0), (2, 0)], weights)
    with pytest.raises(InputError, match="^weight 1 must be strictly positive$"):
        decide(STAR, MoleculeSystem(pairs=((1, 0), (2, 0)), weights=weights))


def test_transport_refuses_a_coefficient_on_the_base():
    """The base carries the residual mass; an element built without
    ``element_from_coeffs`` may not state a coefficient there."""
    element = PointMassElement(coeffs={0: 1, 1: 1})
    with pytest.raises(InputError, match="^coefficient index 0 is the base point"):
        free_norm(STAR, element)
    cert = free_norm(STAR, element_from_coeffs(STAR, element.coeffs))
    assert cert.value == 1
    with pytest.raises(InputError, match="^coefficient index 0 is the base point"):
        recheck_certificate(STAR, element, cert)


@pytest.mark.parametrize("coeffs", [{1: 0.5}, {1: True}, {1.0: 1}, {True: 1}, {4: 1}],
                         ids=["float", "bool", "float-key", "bool-key", "key-out-of-range"])
def test_transport_reads_an_element_by_the_rules(coeffs):
    """An element built without ``element_from_coeffs`` is read by the same rules."""
    element = PointMassElement(coeffs=coeffs)
    message = "expected an exact rational|out of range"
    with pytest.raises(InputError, match=message):
        free_norm(STAR, element)
    cert = free_norm(STAR, PointMassElement(coeffs={1: 1}))
    with pytest.raises(InputError, match=message):
        recheck_certificate(STAR, element, cert)
