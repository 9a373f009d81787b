"""Tests for sequence validation, conversion, refinements and maximal members."""

import time

import pytest
from hypothesis import given, strategies as st

from arfsemigroups import (
    ArfSequence,
    EmptyInputError,
    InvalidFrobeniusError,
    InvalidRefinementError,
    InvalidSequenceError,
    NoGapsError,
    NotArfError,
    NumericalSemigroup,
    admits_proper_refinement,
    apply_refinement,
    arf_sequences_with_total,
    iter_refinements,
    maximal_elements,
    refinement_candidates,
    refinement_free_sequences,
    semigroup_of_sequence,
    sequence_of_semigroup,
    validate_sequence,
)
from arfsemigroups.sequences import _valid_splits
from full_check import assert_checked
from prefix_walk import split_keeps_axioms, splits_by_prefix_walk, unpruned_sequences_with_total


def validate_by_axiom_walk(xs):
    """The axioms read literally: each term walks its predecessors nearest-first,
    looking for a consecutive suffix sum equal to it, or exceeds their total."""
    if xs[0] < 2 or any(b < a for a, b in zip(xs, xs[1:])):
        return False
    for i in range(1, len(xs)):
        total = 0
        for t in reversed(xs[:i]):
            total += t
            if total == xs[i]:
                break
        else:
            if xs[i] <= total:
                return False
    return True


def compositions(total):
    """Every tuple of positive integers summing to ``total``."""
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first, *rest)


class TestValidation:
    def test_known_valid(self):
        assert validate_sequence((2, 2, 2, 2, 2, 2, 2, 2, 4))
        assert validate_sequence((6,))
        assert validate_sequence((2, 2, 2, 8))
        assert validate_sequence((3, 3))
        assert validate_sequence((2, 4))

    def test_known_invalid(self):
        assert not validate_sequence((2, 1, 1, 4, 4, 4, 4))
        assert not validate_sequence((1,))
        assert not validate_sequence((3, 2))  # decreasing
        assert not validate_sequence((2, 2, 3))  # 3 is not in {2,4} and not beyond 4

    def test_second_axiom_boundaries(self):
        # after (2, 2) the next term may be 2, 4, or anything above 4
        assert validate_sequence((2, 2, 2))
        assert validate_sequence((2, 2, 4))
        assert validate_sequence((2, 2, 5))
        assert validate_sequence((2, 2, 400))
        assert not validate_sequence((2, 2, 3))

    def test_gap_above_single_term(self):
        # after (2,) everything from 2 up is allowed
        assert validate_sequence((2, 3))

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            validate_sequence(())

    def test_matches_axiom_walk_on_every_composition_up_to_14(self):
        checked = 0
        for total in range(1, 15):
            for xs in compositions(total):
                assert validate_sequence(xs) == validate_by_axiom_walk(xs), xs
                checked += 1
        assert checked == 2**14 - 1

    @given(
        st.one_of(
            st.lists(st.integers(min_value=-3, max_value=40), min_size=1, max_size=12),
            st.lists(st.integers(min_value=-3, max_value=40), min_size=1, max_size=12).map(sorted),
        )
    )
    def test_matches_axiom_walk_on_random_terms(self, xs):
        assert validate_sequence(xs) == validate_by_axiom_walk(xs)

    def test_linear_time(self):
        started = time.perf_counter()
        assert validate_sequence((2,) * 200_000)
        assert time.perf_counter() - started < 2.0

    def test_arf_sequence_type(self):
        q = ArfSequence((2, 2, 4))
        assert q.total == 8 and len(q) == 3 and q[2] == 4 and list(q) == [2, 2, 4]
        with pytest.raises(InvalidSequenceError):
            ArfSequence((2, 1))


class TestConversion:
    def test_semigroup_of_sequence(self):
        S = semigroup_of_sequence((2, 2, 2, 2, 2, 2, 2, 2, 4))
        assert S == NumericalSemigroup.from_generators([4, 6, 21, 23])
        assert semigroup_of_sequence((6,)) == NumericalSemigroup.delta(5)
        T = semigroup_of_sequence((2, 2, 2, 8))
        assert T.small_elements() == (0, 8, 10, 12)
        assert T.frobenius == 13

    def test_semigroup_of_sequence_rejects_invalid(self):
        with pytest.raises(InvalidSequenceError):
            semigroup_of_sequence((2, 1, 1, 4))

    def test_sequence_of_semigroup(self):
        S = NumericalSemigroup.from_generators([4, 6, 21, 23])
        assert sequence_of_semigroup(S).terms == (2, 2, 2, 2, 2, 2, 2, 2, 4)
        assert sequence_of_semigroup(NumericalSemigroup.delta(5)).terms == (6,)
        assert sequence_of_semigroup(NumericalSemigroup.from_generators([2, 7])).terms == (2, 2, 2)

    def test_sequence_of_semigroup_rejects(self):
        with pytest.raises(NotArfError):
            sequence_of_semigroup(NumericalSemigroup.from_generators([5, 7, 9]))
        with pytest.raises(NoGapsError):
            sequence_of_semigroup(NumericalSemigroup.natural())

    def test_semigroups_of_sequences_pass_the_full_check(self):
        # an ArfSequence was validated when built, so its conversion skips validation
        for total in range(2, 21):
            for q in arf_sequences_with_total(total):
                S = semigroup_of_sequence(q)
                assert_checked(S)
                assert semigroup_of_sequence(q.terms) == S

    def test_round_trip_exhaustive_small_totals(self):
        for total in range(2, 21):
            for q in arf_sequences_with_total(total):
                S = semigroup_of_sequence(q)
                assert S.frobenius == total - 1
                assert sequence_of_semigroup(S).terms == q.terms


class TestRefinements:
    def test_known_splits(self):
        assert refinement_candidates((2, 2, 2, 8), 4, 2)
        assert apply_refinement((2, 2, 2, 8), 4, 2).terms == (2, 2, 2, 2, 6)
        assert refinement_candidates((2, 2, 2, 2, 6), 5, 2)
        assert apply_refinement((2, 2, 2, 2, 6), 5, 2).terms == (2, 2, 2, 2, 2, 4)

    def test_first_position_boundary(self):
        assert not refinement_candidates((4, 8), 1, 3)  # 3 exceeds half of 4
        assert refinement_candidates((4, 8), 1, 2)
        assert refinement_candidates((6, 8), 1, 3)

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidRefinementError):
            refinement_candidates((2, 2, 4), 0, 2)
        with pytest.raises(InvalidRefinementError):
            refinement_candidates((2, 2, 4), 4, 2)
        with pytest.raises(InvalidRefinementError):
            refinement_candidates((2, 2, 4), 3, 1)
        with pytest.raises(InvalidRefinementError):
            refinement_candidates((2, 2, 4), 3, 4)  # split value must stay below the term
        with pytest.raises(InvalidRefinementError):
            refinement_candidates((2, 2, 2), 1, 2)
        with pytest.raises(InvalidRefinementError):
            apply_refinement((2, 2, 2, 8), 4, 3)  # in range but breaks the axioms

    def test_admits_proper_refinement(self):
        assert admits_proper_refinement((2, 2, 2, 8))
        assert not admits_proper_refinement((2, 2, 2, 2, 2, 2, 2))
        assert not admits_proper_refinement((2,))
        assert admits_proper_refinement((7,))  # splits into (2, 5) or (3, 4)

    def test_member_tests_match_the_prefix_walk_on_every_composition_up_to_14(self):
        # invalid tuples included: the tests only read the neighbourhood of a split
        for total in range(1, 15):
            for xs in compositions(total):
                want = splits_by_prefix_walk(xs)
                for i, x in enumerate(xs, start=1):
                    for a in range(2, x):
                        assert refinement_candidates(xs, i, a) == ((i, a) in want), (xs, i, a)
                assert list(_valid_splits(xs)) == want, xs
                assert admits_proper_refinement(xs) == bool(want), xs
                if validate_sequence(xs):
                    assert [(i, a) for i, a, _ in iter_refinements(xs)] == want, xs

    @given(st.lists(st.integers(min_value=-6, max_value=14), min_size=1, max_size=8))
    def test_closed_form_matches_the_prefix_walk_on_any_terms(self, xs):
        # zero and negative terms make the partial sums repeat and fall
        xs = tuple(xs)
        for i, x in enumerate(xs, start=1):
            for a in range(2, x):
                assert refinement_candidates(xs, i, a) == split_keeps_axioms(xs, i, a), (xs, i, a)

    def test_long_inputs_finish_in_time(self):
        # a mask shift per candidate (first input) or prefix work per term (second) is quadratic here
        started = time.perf_counter()
        refined = list(iter_refinements((2, 3, 200_000)))
        assert time.perf_counter() - started < 2.0
        assert len(refined) == 99_995 and refined[0] == (3, 3, ArfSequence((2, 3, 3, 199_997)))
        started = time.perf_counter()
        assert not admits_proper_refinement((2,) * 200_000)
        assert time.perf_counter() - started < 2.0

    def test_refinements_of_invalid_input_are_validated(self):
        # both violate the axioms: (5, 2) has a split, (3, 2) has none
        for bad in ((5, 2), (3, 2)):
            with pytest.raises(InvalidSequenceError):
                list(iter_refinements(bad))

    def test_closed_form_matches_revalidation(self):
        for total in range(2, 17):
            for q in arf_sequences_with_total(total):
                xs = q.terms
                for i in range(1, len(xs) + 1):
                    for a in range(2, xs[i - 1]):
                        expected = validate_sequence(xs[: i - 1] + (a, xs[i - 1] - a) + xs[i:])
                        assert refinement_candidates(xs, i, a) == expected

    def test_refined_semigroup_contains_original(self):
        for total in range(2, 17):
            for q in arf_sequences_with_total(total):
                for _, _, refined in iter_refinements(q):
                    assert semigroup_of_sequence(q).issubset(semigroup_of_sequence(refined))


class TestGeneration:
    def test_all_sequences_small_totals(self):
        assert [q.terms for q in arf_sequences_with_total(2)] == [(2,)]
        assert [q.terms for q in arf_sequences_with_total(4)] == [(2, 2), (4,)]
        assert [q.terms for q in arf_sequences_with_total(6)] == [(2, 2, 2), (2, 4), (3, 3), (6,)]
        assert arf_sequences_with_total(1) == []

    def test_pruned_generator_matches_the_unpruned_one(self):
        for total in range(2, 61):
            assert [q.terms for q in arf_sequences_with_total(total)] == unpruned_sequences_with_total(total)

    def test_unchecked_output_passes_validation(self):
        # the generator builds its output without the ArfSequence check
        for total in range(2, 41):
            for q in arf_sequences_with_total(total):
                assert validate_sequence(q.terms), q.terms

    def test_lexicographic_emission(self):
        for total in range(2, 18):
            terms = [q.terms for q in arf_sequences_with_total(total)]
            assert terms == sorted(terms)
            assert len(set(terms)) == len(terms)

    def test_refinement_free_f13(self):
        frees = [q.terms for q in refinement_free_sequences(13)]
        assert (2, 2, 2, 2, 2, 2, 2) in frees
        assert (2, 2, 2, 8) not in frees

    def test_maximal_elements(self):
        got = {S.minimal_generators() for S in maximal_elements(5)}
        assert got == {(2, 7), (3, 7, 8)}
        assert maximal_elements(1) == [NumericalSemigroup.delta(1)]
        f13 = {S.small_elements() for S in maximal_elements(13)}
        assert NumericalSemigroup.from_generators([2, 15]).small_elements() in f13
        with pytest.raises(InvalidFrobeniusError):
            maximal_elements(0)

    def test_maximal_are_pairwise_incomparable(self):
        for F in range(1, 14):
            ms = maximal_elements(F)
            for A in ms:
                for B in ms:
                    if A != B:
                        assert not A.issubset(B)


@given(st.integers(min_value=2, max_value=26))
def test_random_total_sequences_build_arf_semigroups(total):
    pool = arf_sequences_with_total(total)
    assert pool, total
    for q in pool[:: max(1, len(pool) // 8)]:
        S = semigroup_of_sequence(q)
        assert S.is_arf()
        assert sum(q.terms) == S.frobenius + 1
