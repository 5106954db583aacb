"""Tests for the shortest-path closure, witnesses, and rigid pairs."""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from lipfree import (
    BetaMatrix,
    CertificateMismatchError,
    InputError,
    NegativeCycleWitness,
    PotentialTable,
    beta_matrix,
    build_space,
    check_cyclical_monotonicity,
    closure,
    cycle_sum,
    gen_star,
    recheck_witness,
)
from lipfree.potentials import tight_rigid_pairs
from _instances import random_space, random_system

TRI = build_space(["0", "a", "b"], [[0, 2, 1], [2, 0, 2], [1, 2, 0]], "0")
A, B = 1, 2


def zero_beta(n):
    return BetaMatrix(tuple(tuple(Fraction(0) for _ in range(n)) for _ in range(n)))


def enumerate_simple_path_min(beta, i, j):
    """Exhaustive minimum arc sum over simple paths i -> j (oracle)."""
    n = len(beta)
    best = None
    others = [v for v in range(n) if v not in (i, j)]
    for r in range(len(others) + 1):
        for mid in permutations(others, r):
            path = (i, *mid, j)
            total = sum(
                (beta[path[t]][path[t + 1]] for t in range(len(path) - 1)),
                Fraction(0),
            )
            if best is None or total < best:
                best = total
    return best


def enumerate_simple_cycle_min(beta):
    """Exhaustive minimum arc sum over simple cycles of length >= 2 (oracle)."""
    n = len(beta)
    best = Fraction(0)
    for size in range(2, n + 1):
        for combo in permutations(range(n), size):
            if combo[0] != min(combo):
                continue
            total = cycle_sum(beta, combo)
            if total < best:
                best = total
    return best


class TestClosure:
    def test_zero_matrix(self):
        table = closure(zero_beta(4))
        assert isinstance(table, PotentialTable)
        assert all(x == 0 for row in table.B for x in row)
        assert all(a == 0 for a in table.alphas)
        assert table.globally_unique

    def test_negative_two_cycle_witness(self):
        beta = beta_matrix(TRI, [(A, 0), (0, B)])
        result = closure(beta)
        assert isinstance(result, NegativeCycleWitness)
        assert result.cycle == (0, 1)
        assert result.sum == -1
        recheck_witness(beta, result)

    def test_feasible_non_unique_two_pairs(self):
        beta = BetaMatrix(((0, 1), (1, 0)))
        table = closure(beta)
        assert isinstance(table, PotentialTable)
        assert table.B == ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))
        assert table.anchor == 0
        assert table.alphas[table.anchor] == 0
        # both constraints hold for the anchored solution
        n = 2
        for j in range(n):
            for k in range(n):
                assert table.alphas[k] <= table.alphas[j] + beta.beta[k][j]
        assert not table.globally_unique
        assert table.rigid_pairs == frozenset()

    def test_table_has_one_field_and_a_constant_anchor(self):
        table = closure(beta_matrix(TRI, [(A, 0)]))
        assert PotentialTable.__match_args__ == ("matrix",)
        assert table.anchor == 0
        with pytest.raises(TypeError):
            table.replace(anchor=1)

    def test_table_closes_the_integer_form_of_its_beta(self):
        # the restricted rows keep the denominator 7 of the index they drop
        seventh = Fraction(1, 7)
        wide = BetaMatrix(((0, 1, seventh), (1, 0, seventh), (seventh, seventh, 0)))
        sub = wide.restrict([0, 1])
        assert sub.scaled[0] == 7
        for matrix in (beta_matrix(TRI, [(A, 0), (B, 0)]), sub):
            table = closure(matrix)
            assert table.matrix is matrix and table.beta == matrix.beta
            assert table._closed[0] == matrix.scaled[0]

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(InputError):
            BetaMatrix(((1,),))
        with pytest.raises(InputError):
            BetaMatrix(((0, 1),))

    def test_closure_matches_simple_path_enumeration(self):
        rng = random.Random(88)
        for _ in range(60):
            n = rng.randint(1, 5)
            rows = [
                [
                    Fraction(0)
                    if i == j
                    else Fraction(rng.randint(-6, 10), rng.randint(1, 4))
                    for j in range(n)
                ]
                for i in range(n)
            ]
            beta = BetaMatrix(tuple(tuple(row) for row in rows))
            result = closure(beta)
            oracle_min = enumerate_simple_cycle_min(beta.beta)
            if isinstance(result, NegativeCycleWitness):
                assert oracle_min < 0
                recheck_witness(beta, result)
            else:
                assert oracle_min >= 0
                for i in range(n):
                    for j in range(n):
                        assert result.B[i][j] == (
                            Fraction(0)
                            if i == j
                            else enumerate_simple_path_min(beta.beta, i, j)
                        )

    def test_alpha_feasibility_and_duality_window(self):
        rng = random.Random(89)
        checked = 0
        while checked < 40:
            space = random_space(rng)
            system = random_system(rng, space)
            result = closure(beta_matrix(space, system))
            if isinstance(result, NegativeCycleWitness):
                continue
            checked += 1
            n = len(system.pairs)
            beta = result.beta
            for j in range(n):
                for k in range(n):
                    assert result.alphas[k] <= result.alphas[j] + beta[k][j]
                    diff = result.alphas[j] - result.alphas[k]
                    assert -result.B[k][j] <= diff <= result.B[j][k]

    def test_table_invariants(self):
        rng = random.Random(95)
        checked = 0
        while checked < 30:
            space = random_space(rng)
            system = random_system(rng, space)
            beta = beta_matrix(space, system)
            result = closure(beta)
            if isinstance(result, NegativeCycleWitness):
                continue
            checked += 1
            n = beta.size
            for j in range(n):
                assert result.B[j][j] == 0
                for k in range(n):
                    assert result.B[j][k] <= beta.beta[j][k]
                    assert result.B[j][k] + result.B[k][j] >= 0
                    for l in range(n):
                        assert result.B[j][l] + result.B[l][k] >= result.B[j][k]
            all_pairs = n * (n - 1) // 2
            assert result.globally_unique == (len(result.rigid_pairs) == all_pairs)

    def test_both_anchorings_agree_up_to_constant_when_unique(self):
        rng = random.Random(90)
        seen_unique = 0
        while seen_unique < 15:
            space = random_space(rng)
            system = random_system(rng, space)
            result = closure(beta_matrix(space, system))
            if not isinstance(result, PotentialTable) or not result.globally_unique:
                continue
            seen_unique += 1
            q = result.anchor
            n = len(system.pairs)
            diffs = {result.B[j][q] - (-result.B[q][j]) for j in range(n)}
            assert len(diffs) == 1


class TestTightRigidPairs:
    """``tight_rigid_pairs`` on a table's own alphas gives its rigid pairs."""

    @staticmethod
    def pairs_of(table):
        return tight_rigid_pairs(table.beta, table.alphas)

    def test_zero_matrix_all_pairs(self):
        table = closure(zero_beta(4))
        every = frozenset((j, k) for j in range(4) for k in range(j + 1, 4))
        assert self.pairs_of(table) == every == table.rigid_pairs

    def test_non_rigid_two_by_two(self):
        table = closure(BetaMatrix(((0, 1), (1, 0))))
        # only the arc 1 -> 0 is tight: alphas = (0, 1) and 1 = 0 + beta[1][0]
        assert table.alphas == (0, 1)
        assert self.pairs_of(table) == frozenset() == table.rigid_pairs

    def test_star_anchored_pairs(self):
        star = gen_star(3)
        table = closure(beta_matrix(star, [(1, 0), (2, 0), (3, 0)]))
        assert self.pairs_of(table) == {(0, 1), (0, 2), (1, 2)} == table.rigid_pairs

    def test_matches_closure_on_random_families(self):
        rng = random.Random(91)
        found = 0
        while found < 25:
            space = random_space(rng)
            system = random_system(rng, space)
            result = closure(beta_matrix(space, system))
            if not isinstance(result, PotentialTable) or not result.rigid_pairs:
                continue
            assert self.pairs_of(result) == result.rigid_pairs
            shifted = [a + Fraction(5, 3) for a in result.alphas]
            assert tight_rigid_pairs(result.beta, shifted) == result.rigid_pairs
            found += 1

    def test_degenerate_rigidity_through_repeated_middle(self):
        # two zero-sum 2-cycles sharing the middle index make {0, 2} rigid,
        # yet every simple cycle through both ends has positive sum; 0 and 2
        # reach each other only through the middle
        beta = BetaMatrix(
            (
                (Fraction(0), Fraction(1), Fraction(10)),
                (Fraction(-1), Fraction(0), Fraction(1)),
                (Fraction(10), Fraction(-1), Fraction(0)),
            )
        )
        table = closure(beta)
        assert isinstance(table, PotentialTable)
        alphas = table.alphas
        tight = {(k, j) for k in range(3) for j in range(3)
                 if k != j and alphas[k] == alphas[j] + beta.beta[k][j]}
        assert tight == {(0, 1), (1, 0), (1, 2), (2, 1)}
        assert self.pairs_of(table) == {(0, 1), (0, 2), (1, 2)} == table.rigid_pairs


class TestForgedWitness:
    @pytest.mark.parametrize("cycle, message", [
        ((0, 1, 0), "indices must be distinct"),
        ((0, 2), "index out of range"),
    ], ids=["repeated", "out-of-range"])
    def test_forged_cycle_rejected(self, cycle, message):
        beta = beta_matrix(TRI, [(A, 0), (0, B)])
        witness = closure(beta)
        recheck_witness(beta, witness)
        with pytest.raises(CertificateMismatchError, match=message):
            recheck_witness(beta, witness.replace(cycle=cycle))


class TestCyclicalMonotonicity:
    def test_single_pair_holds(self):
        verdict = check_cyclical_monotonicity(TRI, [(A, 0)])
        assert verdict.holds

    def test_opposed_pairs_fail_with_inequality(self):
        verdict = check_cyclical_monotonicity(TRI, [(A, 0), (0, B)])
        assert not verdict.holds
        witness = verdict.witness
        assert witness.cycle == (0, 1)
        # aligned sum d(a,0) + d(0,b) = 3 exceeds cross sum d(a,b) + d(0,0) = 2
        assert witness.sum == -1

    def test_star_subsets_hold(self):
        star = gen_star(5)
        rng = random.Random(92)
        for _ in range(10):
            count = rng.randint(1, 5)
            pairs = [(n, 0) for n in rng.sample(range(1, 6), count)]
            assert check_cyclical_monotonicity(star, pairs).holds

    def test_witness_recheck_from_raw_data(self):
        rng = random.Random(93)
        found = 0
        while found < 20:
            space = random_space(rng)
            system = random_system(rng, space)
            verdict = check_cyclical_monotonicity(space, system.pairs)
            if verdict.holds:
                continue
            found += 1
            recheck_witness(beta_matrix(space, system.pairs), verdict.witness)
