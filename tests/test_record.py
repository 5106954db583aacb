"""The frozen record base behaves like ``@dataclass(frozen=True)`` on lipfree's types.

Each check runs on the real value types. ``TestDataclassParity`` builds a
frozen dataclass twin of a record class and requires the same repr, equality
and hash, so the record base is held to the behaviour it replaced.
"""

import dataclasses
from fractions import Fraction

import pytest

from lipfree import (
    BetaMatrix,
    DiffVerdict,
    InputError,
    L1Verdict,
    LipschitzFunction,
    MonotonicityVerdict,
    NegativeCycleWitness,
    NonUniqueOnN,
    NotAttaining,
    PartialFunction,
    PointMassElement,
    StabilityBound,
    Uncovered,
    VerdictKind,
    build_space,
)
from lipfree._record import Record
from lipfree.oracles import _vertex_value_vectors, dual_vertices


def tri():
    return build_space(["0", "a", "b"], [[0, 2, 1], [2, 0, 2], [1, 2, 0]], "0")


def witness():
    return NegativeCycleWitness((0, 1), Fraction(-1, 2))


class TestEquality:
    def test_equal_fields_give_equal_records_and_hashes(self):
        assert witness() == witness()
        assert witness() is not witness()
        assert hash(witness()) == hash(witness())
        assert tri() == tri()
        assert hash(tri()) == hash(tri())

    def test_different_fields_differ(self):
        assert witness() != NegativeCycleWitness((0, 1), Fraction(-1))
        assert witness() != NegativeCycleWitness((1, 0), Fraction(-1, 2))

    def test_other_class_with_same_values_is_not_equal(self):
        assert MonotonicityVerdict(True, None, None) != L1Verdict(True, None, None)
        assert L1Verdict(True, None, None) != MonotonicityVerdict(True, None, None)
        assert witness() != ((0, 1), Fraction(-1, 2))

    def test_dict_fields_are_unhashable(self):
        with pytest.raises(TypeError):
            hash(PointMassElement({1: Fraction(1)}))
        with pytest.raises(TypeError):
            hash(PartialFunction((1,), {1: Fraction(0)}))


class TestFrozen:
    def test_assignment_raises(self):
        w = witness()
        with pytest.raises(AttributeError):
            w.sum = Fraction(0)
        with pytest.raises(AttributeError):
            w.other = 1
        assert w.sum == Fraction(-1, 2)

    def test_deletion_raises(self):
        space = tri()
        with pytest.raises(AttributeError):
            del space.base
        assert space.base == 0


class TestConstruction:
    def test_repr(self):
        assert repr(witness()) == "NegativeCycleWitness(cycle=(0, 1), sum=Fraction(-1, 2))"
        assert repr(Uncovered(3)) == "Uncovered(point=3)"

    def test_positional_and_keyword(self):
        assert NegativeCycleWitness(cycle=(0, 1), sum=Fraction(-1, 2)) == witness()
        assert NegativeCycleWitness((0, 1), sum=Fraction(-1, 2)) == witness()

    def test_diff_verdict_defaults(self):
        verdict = DiffVerdict(VerdictKind.FRECHET)
        assert verdict.norming is None
        assert verdict.failure is None
        assert verdict.coverage is None
        failed = DiffVerdict(kind=VerdictKind.NOT_GATEAUX, failure=Uncovered(2))
        assert failed.failure == Uncovered(2)
        assert failed.norming is None

    @pytest.mark.parametrize(
        "args, kwargs",
        [
            (((0, 1),), {}),
            ((), {"sum": Fraction(0)}),
            (((0, 1), Fraction(0), 1), {}),
            (((0, 1), Fraction(0)), {"extra": 1}),
            (((0, 1),), {"cycle": (0, 1), "sum": Fraction(0)}),
        ],
        ids=["missing", "missing-first", "too-many", "unknown", "twice"],
    )
    def test_bad_arguments_raise_type_error(self, args, kwargs):
        with pytest.raises(TypeError):
            NegativeCycleWitness(*args, **kwargs)

    def test_post_init_validates(self):
        with pytest.raises(InputError):
            BetaMatrix(((0, 1),))
        with pytest.raises(InputError):
            PartialFunction((1, 2), {1: Fraction(0)})
        assert type(BetaMatrix(((0, 1), (1, 0))).beta[0][1]) is Fraction

    def test_match_args(self):
        assert NotAttaining.__match_args__ == ("witness",)
        match NotAttaining(witness()):
            case NotAttaining(found):
                assert found == witness()
            case _:  # pragma: no cover
                pytest.fail("class pattern did not match")

    def test_default_before_required_field_is_rejected(self):
        with pytest.raises(TypeError):

            class Bad(Record):
                a: int = 0
                b: int


class TestReplace:
    def test_returns_a_new_record(self):
        f = LipschitzFunction((Fraction(1), Fraction(0)), Fraction(1))
        g = f.replace(lip_constant=Fraction(2))
        assert g == LipschitzFunction((Fraction(1), Fraction(0)), Fraction(2))
        assert f.lip_constant == 1

    def test_runs_post_init(self):
        beta = BetaMatrix(((0, 1), (1, 0)))
        with pytest.raises(InputError):
            beta.replace(beta=((0, 1),))
        assert beta.replace(beta=((0, 2), (3, 0))).beta[1][0] == Fraction(3)
        partial = PartialFunction((1,), {1: Fraction(0)})
        assert partial.replace(domain=[2, 1], values={1: 0, 2: 1}).domain == (1, 2)

    def test_unknown_field_raises_type_error(self):
        with pytest.raises(TypeError):
            witness().replace(length=2)


def test_space_is_an_lru_cache_key():
    _vertex_value_vectors.cache_clear()
    first = dual_vertices(tri())
    assert dual_vertices(tri()) is first
    info = _vertex_value_vectors.cache_info()
    assert (info.hits, info.misses) == (1, 1)


class TestDataclassParity:
    @pytest.mark.parametrize(
        "record",
        [
            witness(),
            tri(),
            NonUniqueOnN((0, 2)),
            StabilityBound(Fraction(1, 2), Fraction(3), 4, Fraction(7, 5)),
            DiffVerdict(VerdictKind.NOT_GATEAUX, failure=Uncovered(1)),
            BetaMatrix(((0, 1), (-1, 0))),
        ],
        ids=lambda r: type(r).__name__,
    )
    def test_repr_eq_hash_match_a_frozen_dataclass(self, record):
        cls = type(record)
        twin_cls = dataclasses.make_dataclass(
            cls.__name__, cls.__match_args__, frozen=True
        )
        values = [getattr(record, name) for name in cls.__match_args__]
        twin = twin_cls(*values)
        assert repr(record) == repr(twin)
        assert hash(record) == hash(twin)
        assert record == cls(*values)
        assert (record == twin) is False
