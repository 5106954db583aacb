"""Tests for the exact transport norm, certificates, and decomposition."""

import random
from fractions import Fraction

import pytest

from lipfree import (
    CertificateMismatchError,
    attains,
    brute_dual_norm,
    build_space,
    build_system,
    check_cyclical_monotonicity,
    decompose_to_molecules,
    dual_objective,
    element_from_coeffs,
    free_norm,
    gen_star,
    make_function,
    recheck_certificate,
    to_point_masses,
)
import lipfree.transport as transport
from _instances import random_space, random_system, random_weights

TRI = build_space(["0", "a", "b"], [[0, 2, 1], [2, 0, 2], [1, 2, 0]], "0")
A, B = 1, 2


class TestFreeNorm:
    def test_single_molecule_is_unit(self):
        element = element_from_coeffs(
            TRI, {A: Fraction(1, 2)}  # molecule (a, 0) over d = 2
        )
        cert = free_norm(TRI, element)
        assert cert.value == 1

    def test_three_point_element(self):
        element = element_from_coeffs(TRI, {A: Fraction(1, 4), B: Fraction(-1, 2)})
        cert = free_norm(TRI, element)
        assert cert.value == Fraction(3, 4)
        assert cert.value == brute_dual_norm(TRI, element)
        assert cert.dual.values[A] == 1
        assert cert.dual.values[B] == -1

    def test_star_pair_system(self):
        star = gen_star(2)
        system = build_system(star, [(1, 0), (2, 0)], [Fraction(1, 2)] * 2)
        cert = free_norm(star, to_point_masses(star, system))
        assert cert.value == 1

    def test_empty_element(self):
        cert = free_norm(TRI, element_from_coeffs(TRI, {}))
        assert cert.value == 0
        assert cert.plan == ()
        assert all(v == 0 for v in cert.dual.values)

    def test_zero_element_is_rechecked_once(self, monkeypatch):
        calls = []
        recheck = transport.recheck_certificate
        monkeypatch.setattr(transport, "recheck_certificate",
                            lambda *args: calls.append(args) or recheck(*args))
        element = element_from_coeffs(TRI, {})
        cert = free_norm(TRI, element)
        assert calls == [(TRI, element, cert)]
        assert (cert.value, cert.plan, cert.dual.lip_constant) == (0, (), 0)

    def test_molecule_norm_one_for_every_pair(self):
        rng = random.Random(41)
        for _ in range(25):
            space = random_space(rng)
            x = rng.randrange(len(space))
            y = rng.randrange(len(space))
            if x == y:
                continue
            inv = 1 / space.d(x, y)
            coeffs = {x: inv, y: -inv}
            coeffs = {p: c for p, c in coeffs.items() if p != space.base}
            element = element_from_coeffs(space, coeffs)
            assert free_norm(space, element).value == 1

    def test_zero_duality_gap_and_recheck(self):
        rng = random.Random(42)
        for _ in range(50):
            space = random_space(rng)
            system = random_system(rng, space)
            element = to_point_masses(space, system)
            cert = free_norm(space, element)
            plan_cost = sum(
                (m * space.d(s, t) for s, t, m in cert.plan), Fraction(0)
            )
            assert plan_cost == cert.value
            assert dual_objective(space, element, cert.dual.values) == cert.value
            assert cert.dual.lip_constant <= 1
            recheck_certificate(space, element, cert)

    def test_plan_is_canonical(self):
        element = element_from_coeffs(TRI, {A: Fraction(1, 4), B: Fraction(-1, 2)})
        first = free_norm(TRI, element)
        second = free_norm(TRI, element)
        assert first.plan == second.plan == ((0, B, Fraction(1, 4)), (A, B, Fraction(1, 4)))


class TestAttains:
    def test_star_systems_attain(self):
        star = gen_star(5)
        rng = random.Random(43)
        for _ in range(10):
            count = rng.randint(1, 5)
            pairs = [(n, 0) for n in rng.sample(range(1, 6), count)]
            system = build_system(star, pairs, random_weights(rng, count))
            assert attains(star, system)

    def test_opposed_pairs_do_not_attain(self):
        system = build_system(TRI, [(A, 0), (0, B)], [Fraction(1, 2)] * 2)
        assert not attains(TRI, system)
        assert free_norm(TRI, to_point_masses(TRI, system)).value == Fraction(3, 4)

    def test_single_molecule_attains_any_weight(self):
        system = build_system(TRI, [(A, 0)], [Fraction(7, 3)])
        assert attains(TRI, system)

    def test_matches_cyclical_monotonicity(self):
        rng = random.Random(44)
        for _ in range(60):
            space = random_space(rng)
            system = random_system(rng, space)
            assert attains(space, system) == check_cyclical_monotonicity(
                space, system.pairs
            ).holds


class TestDecompose:
    def test_single_mass_to_base(self):
        element = element_from_coeffs(TRI, {A: Fraction(1, 2)})
        system = decompose_to_molecules(TRI, element)
        assert system.pairs == ((A, 0),)
        assert system.weights == (Fraction(1),)

    def test_three_point_element(self):
        element = element_from_coeffs(TRI, {A: Fraction(1, 4), B: Fraction(-1, 2)})
        system = decompose_to_molecules(TRI, element)
        assert system.total_weight == Fraction(3, 4)
        assert check_cyclical_monotonicity(TRI, system.pairs).holds

    def test_zero_element_gives_empty_system(self):
        system = decompose_to_molecules(TRI, element_from_coeffs(TRI, {}))
        assert len(system) == 0

    def test_monotone_system_total_preserved(self):
        rng = random.Random(45)
        checked = 0
        while checked < 25:
            space = random_space(rng)
            system = random_system(rng, space)
            if not check_cyclical_monotonicity(space, system.pairs).holds:
                continue
            checked += 1
            element = to_point_masses(space, system)
            redone = decompose_to_molecules(space, element)
            assert redone.total_weight == system.total_weight
            assert check_cyclical_monotonicity(space, redone.pairs).holds

    def test_decomposition_reproduces_element(self):
        rng = random.Random(46)
        for _ in range(25):
            space = random_space(rng)
            system = random_system(rng, space)
            element = to_point_masses(space, system)
            redone = decompose_to_molecules(space, element)
            assert to_point_masses(space, redone).coeffs == element.coeffs


class TestForgedCertificate:
    """Each branch of ``recheck_certificate`` rejects a certificate forged in one field."""

    @pytest.mark.parametrize("forge, message", [
        (lambda c: c.replace(plan=((B, B, Fraction(1, 4)),) + c.plan[1:]), "endpoints invalid"),
        (lambda c: c.replace(plan=((0, 3, Fraction(1, 4)),) + c.plan[1:]), "endpoints invalid"),
        (lambda c: c.replace(plan=((0, B, Fraction(0)),) + c.plan[1:]), "mass must be positive"),
        (lambda c: c.replace(plan=((0, B, Fraction(-1, 4)),) + c.plan[1:]),
         "mass must be positive"),
        (lambda c: c.replace(plan=c.plan[1:]), "does not balance"),
        (lambda c: c.replace(value=c.value + 1), "differs from stated value"),
        (lambda c: c.replace(dual=make_function(TRI, [v + 1 for v in c.dual.values])),
         "must vanish at the base"),
        (lambda c: c.replace(dual=c.dual.replace(values=c.dual.values + (Fraction(0),))),
         "one value per point"),
        (lambda c: c.replace(dual=c.dual.replace(values=c.dual.values[:-1])),
         "one value per point"),
        (lambda c: c.replace(plan=((False, B, Fraction(1, 4)),) + c.plan[1:]), "two int endpoints"),
        (lambda c: c.replace(plan=((0, B, 0.25),) + c.plan[1:]), "an exact mass"),
        (lambda c: c.replace(plan=((0, B),) + c.plan[1:]), "two int endpoints"),
        (lambda c: c.replace(plan=(("0", B, Fraction(1, 4)),) + c.plan[1:]), "two int endpoints"),
        (lambda c: c.replace(plan=((Fraction(0), B, Fraction(1, 4)),) + c.plan[1:]),
         "two int endpoints"),
    ], ids=["loop", "out-of-range", "zero-mass", "negative-mass", "dropped-leg",
            "wrong-value", "shifted-dual", "dual-too-long", "dual-too-short",
            "bool-endpoint", "float-mass", "two-tuple-leg", "str-endpoint", "fraction-endpoint"])
    def test_forged_field_rejected(self, forge, message):
        element = element_from_coeffs(TRI, {A: Fraction(1, 4), B: Fraction(-1, 2)})
        cert = free_norm(TRI, element)
        assert cert.plan == ((0, B, Fraction(1, 4)), (A, B, Fraction(1, 4)))
        recheck_certificate(TRI, element, cert)
        with pytest.raises(CertificateMismatchError, match=message):
            recheck_certificate(TRI, element, forge(cert))
