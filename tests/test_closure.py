"""Tests for the hull operator, minimal generating systems and rank counts."""

from functools import reduce
from itertools import combinations

import pytest

from arfsemigroups import (
    InvalidFrobeniusError,
    NotInCovarietyError,
    NumericalSemigroup,
    ScaleLimitError,
    ar_closure,
    count_rank_one,
    enumerate_ar,
    minimal_ar_generators,
    rank_one_catalog,
)
from arfsemigroups.closure import _HULL_LIMIT


def sg(*gens):
    return NumericalSemigroup.from_generators(gens)


class TestClosure:
    def test_worked_example(self):
        res = ar_closure([6, 8], 29)
        assert res.is_ar_set
        assert res.closure.minimal_generators() == (6, 8, 10, 31, 33, 35)
        assert res.closure.small_elements() == (0,) + tuple(range(6, 29, 2))
        assert all(x in res.closure for x in (6, 8))

    def test_stages_of_worked_example(self):
        res = ar_closure([6, 8], 29)
        assert res.stages
        assert 10 in res.stages[0]  # 8 + 8 - 6
        seen: set[int] = set()
        for stage in res.stages:
            assert list(stage) == sorted(stage)
            assert not seen & set(stage)
            seen |= set(stage)
        assert seen <= set(res.closure.small_elements())

    def test_empty_input_gives_minimum(self):
        res = ar_closure([], 5)
        assert res.is_ar_set
        assert res.closure == NumericalSemigroup.delta(5)
        assert res.stages == ()

    def test_input_normalized(self):
        assert ar_closure([8, 6, 8], 29).input_set == (6, 8)

    def test_syntactic_rejections(self):
        for bad in ([0], [-3], [6]):
            res = ar_closure(bad, 5)
            assert not res.is_ar_set and res.closure is None

    def test_blocked_immediately(self):
        res = ar_closure([4], 8)  # 4 + 4 hits the Frobenius number
        assert not res.is_ar_set
        assert res.closure is None
        assert res.stages == ()

    def test_blocked_after_a_round(self):
        res = ar_closure([4, 7], 10)  # 7 + 7 - 4 hits it
        assert not res.is_ar_set
        assert res.stages

    def test_frobenius_itself_is_never_allowed(self):
        assert not ar_closure([5], 5).is_ar_set

    def test_against_intersection_oracle(self):
        for F in range(1, 11):
            members = enumerate_ar(F).semigroups()
            pool = range(1, F + 1)
            for k in range(0, 4):
                for X in combinations(pool, k):
                    res = ar_closure(X, F)
                    containing = [S for S in members if all(x in S for x in X)]
                    assert res.is_ar_set == bool(containing)
                    if containing:
                        assert res.closure == reduce(NumericalSemigroup.intersect, containing)

    def test_monotone_in_the_input(self):
        a = ar_closure([8], 29).closure
        b = ar_closure([6, 8], 29).closure
        assert a.issubset(b)

    def test_limits(self):
        with pytest.raises(InvalidFrobeniusError):
            ar_closure([2], 0)
        with pytest.raises(ScaleLimitError):
            ar_closure([2], _HULL_LIMIT + 1)


class TestMinimalSystem:
    def test_worked_example(self):
        S = sg(6, 8, 10, 31, 33, 35)
        assert minimal_ar_generators(S) == (6, 8)

    def test_rejects_outside_the_family(self):
        with pytest.raises(NotInCovarietyError):
            minimal_ar_generators(sg(5, 7, 9))
        with pytest.raises(NotInCovarietyError):
            minimal_ar_generators(NumericalSemigroup.natural())

    def test_system_regenerates_and_is_minimal(self):
        for F in (7, 12):
            for S in enumerate_ar(F).semigroups():
                X = minimal_ar_generators(S)
                assert ar_closure(X, F).closure == S
                for x in X:
                    smaller = ar_closure(set(X) - {x}, F)
                    assert smaller.is_ar_set and smaller.closure != S

    def test_multiplicity_always_in_the_system(self):
        for F in range(1, 13):
            root = NumericalSemigroup.delta(F)
            for S in enumerate_ar(F).semigroups():
                if S != root:
                    assert S.multiplicity() in minimal_ar_generators(S)

    def test_rank_zero_exactly_at_the_minimum(self):
        for F in range(1, 13):
            for S in enumerate_ar(F).semigroups():
                rank = len(minimal_ar_generators(S))
                assert (rank == 0) == (S == NumericalSemigroup.delta(F))
                assert rank <= S.embedding_dim()


class TestRankOne:
    def test_catalog_f5(self):
        got = [S.minimal_generators() for S in rank_one_catalog(5)]
        assert got == [(2, 7), (3, 7, 8), (4, 6, 7, 9)]

    def test_catalog_f2_empty(self):
        assert rank_one_catalog(2) == []

    def test_catalog_matches_rank_filter(self):
        for F in range(2, 13):
            via_rank = {
                S.small_elements()
                for S in enumerate_ar(F).semigroups()
                if len(minimal_ar_generators(S)) == 1
            }
            assert {S.small_elements() for S in rank_one_catalog(F)} == via_rank

    def test_genus_formula(self):
        for F in range(2, 201):
            catalog = rank_one_catalog(F)
            assert len(catalog) == count_rank_one(F)
            for S in catalog:
                m = S.multiplicity()
                assert S.genus() == F - F // m

    def test_counts(self):
        assert count_rank_one(360) == 336
        assert count_rank_one(12) == 6
        for p in (5, 7, 11, 13, 101):
            assert count_rank_one(p) == p - 2

    def test_limits(self):
        with pytest.raises(InvalidFrobeniusError):
            rank_one_catalog(1)
        with pytest.raises(InvalidFrobeniusError):
            count_rank_one(1)
