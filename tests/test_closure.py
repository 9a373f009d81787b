"""Tests for the hull operator, minimal generating systems and rank counts."""

import math
import time
from functools import reduce
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

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
from arfsemigroups.closure import _HULL_LIMIT, _is_arf
from arfsemigroups.core import _closure_mask
from full_check import assert_checked
from pair_fixpoint import pair_fixpoint


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

    def test_arf_shortcut_matches_is_arf(self):
        # a wrong "Arf" would cut the chain short; a wrong "not Arf" would run it to the end
        family = [sg(a, b) for a in range(2, 12) for b in range(a + 1, 30) if math.gcd(a, b) == 1]
        family += [S for F in range(1, 13) for S in enumerate_ar(F).semigroups()]
        for S in family:
            for c in (S.frobenius, S.frobenius + 3):  # T over [0, c], everything above a member
                T = S._extended_mask(c) & ((1 << (c + 1)) - 1)
                assert _is_arf(T, c) == S.is_arf(), (S, c)

    def test_slowest_known_chain_at_the_limit_finishes_in_time(self):
        # about F/3 steps of multiplicity 3, each shifting a mask over [0, F]
        started = time.perf_counter()
        res = ar_closure([3, _HULL_LIMIT - 2], _HULL_LIMIT)
        assert time.perf_counter() - started < 2.0
        assert not res.is_ar_set


def assert_matches_pair_fixpoint(X, F):
    """The chain and the pair fixpoint agree on X; the stages split the hull minus <X>."""
    res = ar_closure(X, F)
    accepted, mask, _ = pair_fixpoint(res.input_set, F)
    assert res.is_ar_set == accepted, (X, F)
    seen = 0
    for stage in res.stages:
        assert list(stage) == sorted(stage)
        bits = sum(1 << s for s in stage)
        assert not bits & seen
        seen |= bits
    if accepted:
        assert res.closure.mask == mask | (1 << (F + 1)), (X, F)
        assert seen == mask & ~_closure_mask(res.input_set, F)


class TestAgainstPairFixpoint:
    def test_tree_nodes_and_their_subsets_up_to_f40(self):
        for F in range(1, 41):
            for S in enumerate_ar(F).semigroups():
                positive = S.small_elements()[1:]
                for X in (positive, positive[::2], positive[1::2]):
                    assert_matches_pair_fixpoint(X, F)

    def test_long_chains(self):
        # a multiplicity repeated for 35 to 333 steps, accepted and refused
        for X, F in (([9, 295], 300), ([8, 262], 300), ([6, 776], 1001), ([3, 1000], 1001)):
            assert_matches_pair_fixpoint(X, F)


@given(st.data())
def test_random_sets_match_the_pair_fixpoint(data):
    F = data.draw(st.integers(min_value=1, max_value=80))
    X = data.draw(st.lists(st.integers(min_value=1, max_value=F), max_size=4))
    assert_matches_pair_fixpoint(X, F)


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

    def test_matches_removal_on_every_node_up_to_f40(self):
        # the rule read literally: drop x, then run the full Arf test
        for F in range(1, 41):
            for S in enumerate_ar(F).semigroups():
                by_removal = tuple(x for x in S.minimal_generators() if x < F and S.remove(x).is_arf())
                assert minimal_ar_generators(S) == by_removal

    def test_many_generators_finish_in_time(self):
        # 8,000 minimal generators below F and 24,769 small elements; removing each
        # generator and testing the rest for Arf would take minutes
        S = ar_closure([16_000, 16_002], 65_535).closure
        started = time.perf_counter()
        assert minimal_ar_generators(S) == (16_000, 16_002)
        assert time.perf_counter() - started < 2.0


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

    def test_catalog_passes_the_full_check(self):
        for F in range(2, 41):
            for S in rank_one_catalog(F):
                assert_checked(S)
                m = S.multiplicity()
                assert S == NumericalSemigroup.from_small_elements(F, range(0, F, m))

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


@given(st.data())
def test_random_hulls_pass_the_full_check(data):
    F = data.draw(st.integers(min_value=1, max_value=80))
    X = data.draw(st.lists(st.integers(min_value=1, max_value=F - 1 or 1), max_size=4))
    res = ar_closure(X, F)
    if res.is_ar_set:
        assert_checked(res.closure)
        assert res.closure.is_arf() and all(x in res.closure for x in X)
    else:
        assert res.closure is None
