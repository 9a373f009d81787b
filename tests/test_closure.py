"""Tests for the hull operator, minimal generating systems and rank counts."""

import time
from fractions import Fraction
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
    brute_all_semigroups,
    brute_is_arf,
    count_rank_one,
    enumerate_ar,
    minimal_ar_generators,
    rank_one_catalog,
)
from arfsemigroups.closure import _HULL_LIMIT
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
        # integral numbers are read as their ints
        assert ar_closure([6.0, Fraction(16, 2)], 29) == res
        assert ar_closure([True, 2], 5).input_set == (1, 2)

    def test_stages_of_worked_example(self):
        # one round of multiplicity 6, then 2 up to F: the hull's positive small elements
        res = ar_closure([6, 8], 29)
        assert [tuple(s) for s in res.stages] == [(6,), tuple(range(8, 29, 2))]
        assert [s.step for s in res.stages] == [6, 2]

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
        assert [tuple(s) for s in res.stages] == [(4, 8)]
        assert [s.step for s in res.stages] == [4]

    def test_blocked_after_a_round(self):
        res = ar_closure([4, 7], 10)  # 7 + 7 - 4 hits it
        assert not res.is_ar_set
        assert [tuple(s) for s in res.stages] == [(4,), (7,), (8, 9, 10)]
        assert [s.step for s in res.stages] == [4, 3, 1]

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
        with pytest.raises(InvalidFrobeniusError, match=r"^frobenius must be >= 1, got 0$"):
            ar_closure([], 0)
        # int() would truncate these to [6, 8]
        for X in ([6.9, 8.2], [6, Fraction(17, 2)]):
            with pytest.raises(ValueError, match="is not an integer"):
                ar_closure(X, 29)
        with pytest.raises(ScaleLimitError):
            ar_closure([2], _HULL_LIMIT + 1)

    def test_slowest_known_chain_at_the_limit_finishes_in_time(self):
        # about F/3 running sums of multiplicity 3, and 10,454 of multiplicity 5 before a tail of small
        # multiplicities; then the largest inputs known: 32,768 generators, F being a sum of two, and
        # the 16,384 odd numbers from 32,769 up, refused at F = 2^16 - 1 and accepted at 2^16
        odd = range(32_769, 65_536, 2)
        for X, F, accepted, sizes in (
            ([3, _HULL_LIMIT - 2], _HULL_LIMIT, False, [21_844, 1, 2]),
            ([5, 52272, 52273, 52279, 52283, 52284], _HULL_LIMIT, False, [10_454, 1, 13_264]),
            (range(32_768, 65_536), _HULL_LIMIT, False, [1, 32_768]),
            (odd, _HULL_LIMIT - 1, False, [1, 16_383]),
            (odd, _HULL_LIMIT, True, [1, 16_383]),
        ):
            started = time.perf_counter()
            res = ar_closure(X, F)
            assert time.perf_counter() - started < 2.0
            assert res.is_ar_set == accepted
            assert [len(s) for s in res.stages] == sizes


def assert_matches_pair_fixpoint(X, F):
    """The chain and the pair fixpoint agree on X; the stages are the hull's running sums up to F."""
    res = ar_closure(X, F)
    accepted, mask = pair_fixpoint(res.input_set, F)
    assert res.is_ar_set == accepted, (X, F)
    steps = [stage.step for stage in res.stages]
    assert steps == sorted(set(steps), reverse=True), (X, F)  # the multiplicities fall strictly
    sums = [s for stage in res.stages for s in stage]
    if accepted:
        assert res.closure.mask == mask | (1 << (F + 1)), (X, F)
        assert res.closure.semigroup_type() == res.closure.multiplicity() - 1  # Arf, so MED
        assert sum(1 << s for s in sums) == mask & ~1
        assert [stage.step for stage in res.stages for _ in stage] == list(res.closure.difference_sequence()[:0:-1])
    else:
        assert sums[-1] == F, (X, F)


class TestAgainstPairFixpoint:
    def test_tree_nodes_and_their_subsets_up_to_f40(self):
        for F in range(1, 41):
            for S in enumerate_ar(F).semigroups():
                positive = S.small_elements()[1:]
                for X in (positive, positive[::2], positive[1::2]):
                    assert_matches_pair_fixpoint(X, F)

    def test_long_chains(self):
        # a multiplicity repeated for 35 to 333 steps, accepted and refused; then rounds of the chain
        # on generator sets: generators in one residue class mod m, of which only the least counts;
        # the multiplicity m itself falling above c after a round; and over 100 steps of m in one round
        for X, F in (
            ([9, 295], 300),
            ([8, 262], 300),
            ([6, 776], 1001),
            ([3, 1000], 1001),
            ([6, 44, 62, 92], 737),
            ([12, 71, 95, 191], 283),
            ([156, 234, 334], 393),
            ([96, 182, 263], 271),
            ([6, 622], 849),
            ([5, 522], 704),
        ):
            assert_matches_pair_fixpoint(X, F)


@given(st.data())
def test_random_sets_match_the_pair_fixpoint(data):
    F = data.draw(st.integers(min_value=1, max_value=80))
    X = data.draw(st.lists(st.integers(min_value=1, max_value=F), max_size=8))
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

    def test_rejections_match_is_arf(self):
        # the verdict comes from the sequence axioms, as ``is_arf``'s does, so it is checked against
        # the definition (``brute_is_arf``) on every semigroup with F <= 14, and against membership
        # in the tree, which holds only Arf semigroups, for F <= 40
        family = [(S, brute_is_arf(S)) for F in range(1, 15) for S in brute_all_semigroups(F)]
        family += [(S, True) for F in range(1, 41) for S in enumerate_ar(F).semigroups()]
        rejected = 0
        for S, arf in family:
            try:
                minimal_ar_generators(S)
            except NotInCovarietyError as exc:
                rejected += 1
                assert not arf, S
                assert str(exc) == (
                    f"the semigroup with Frobenius number {S.frobenius} and multiplicity {S.multiplicity()}"
                    " is not an Arf semigroup with positive Frobenius number"
                )
            else:
                assert arf, S
        assert rejected == 379 - 119  # every non-Arf semigroup with F <= 14
        naturals = "^the naturals are not an Arf semigroup with positive Frobenius number$"
        with pytest.raises(NotInCovarietyError, match=naturals):
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
                assert S.semigroup_type() == m - 1  # Arf, so MED
                assert S == NumericalSemigroup.from_small_elements(F, range(0, F, m))

    def test_counts(self):
        assert count_rank_one(360) == 336
        assert count_rank_one(12) == 6
        for p in (5, 7, 11, 13, 101):
            assert count_rank_one(p) == p - 2

    def test_count_matches_a_divisor_sieve(self):
        N = 20_000
        divisors = [0] * (N + 1)
        for d in range(1, N + 1):
            for k in range(d, N + 1, d):
                divisors[k] += 1
        assert [count_rank_one(F) for F in range(2, N + 1)] == [F - divisors[F] for F in range(2, N + 1)]

    @pytest.mark.parametrize("F, divisors", [
        (2**31 - 1, 2),  # prime: trial division runs up to its square root
        (999_999_937, 2),  # the largest prime below 10^9
        (46_337**2, 3),  # 2,147,117,569, the square of a prime
        (223_092_870, 512),  # 2 * 3 * 5 * ... * 23
        (735_134_400, 1344),  # 2^6 * 3^3 * 5^2 * 7 * 11 * 13 * 17
    ])
    def test_count_on_large_frobenius_numbers(self, F, divisors):
        assert count_rank_one(F) == F - divisors

    def test_limits(self):
        with pytest.raises(InvalidFrobeniusError, match=r"^frobenius must be >= 2, got 1$"):
            rank_one_catalog(1)
        with pytest.raises(InvalidFrobeniusError, match=r"^frobenius must be >= 2, got 1$"):
            count_rank_one(1)

    def test_listing_limit_is_checked_by_the_catalog(self):
        # the catalog holds about F masks of F bits; the count has no limit
        assert len(rank_one_catalog(1500)) == count_rank_one(1500)
        for F in (1501, 2**31 - 1):
            started = time.perf_counter()
            message = f"^rank-one listing for Frobenius number {F} refused \\(limit 1500; the count has none\\)$"
            with pytest.raises(ScaleLimitError, match=message):
                rank_one_catalog(F)
            assert time.perf_counter() - started < 0.1  # refused before any member is built


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
