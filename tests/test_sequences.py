"""Tests for sequence validation, conversion, refinements and maximal members."""

import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from arfsemigroups import (
    ArfSequence,
    EmptyInputError,
    InvalidFrobeniusError,
    InvalidSequenceError,
    NotInCovarietyError,
    NumericalSemigroup,
    ScaleLimitError,
    admits_proper_refinement,
    arf_sequences_with_total,
    children,
    iter_refinements,
    maximal_elements,
    minimal_ar_generators,
    refinement_free_sequences,
    semigroup_of_sequence,
    sequence_of_semigroup,
    validate_sequence,
)
from arfsemigroups.core import _TREE_LIMIT
from full_check import assert_checked
from prefix_walk import splits_by_prefix_walk, unpruned_sequences_with_total


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


def assert_splits_match_the_prefix_walk(xs):
    """On valid terms, the (i, a) of ``iter_refinements`` are the prefix walk's splits and
    ``admits_proper_refinement`` says whether there are any; on invalid ones both refuse."""
    if validate_sequence(xs):
        want = splits_by_prefix_walk(xs)  # tries every a in 2..x_i - 1, a > x_i / 2 included
        assert [(i, a) for i, a, _ in iter_refinements(xs)] == want, xs
        assert admits_proper_refinement(xs) == bool(want), xs
        return
    for call in (admits_proper_refinement, lambda xs: list(iter_refinements(xs))):
        with pytest.raises(InvalidSequenceError):
            call(xs)


class Int(int):
    """An int subclass, read as the plain int it holds."""


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
        for call in (ArfSequence, validate_sequence, semigroup_of_sequence, admits_proper_refinement,
                     lambda xs: list(iter_refinements(xs))):
            with pytest.raises(EmptyInputError, match=r"^at least one term is required$"):
                call(())

    @pytest.mark.parametrize("term", [2.5, Fraction(5, 2)])
    def test_fractional_terms_rejected(self, term):
        # int() would truncate them to 2, a valid sequence with a proper refinement
        for call in (ArfSequence, validate_sequence, semigroup_of_sequence, admits_proper_refinement,
                     lambda xs: list(iter_refinements(xs))):
            with pytest.raises(ValueError, match="is not an integer"):
                call((2, 2, term, 8))

    def test_matches_axiom_walk_on_every_composition_up_to_14(self):
        checked = 0
        for total in range(1, 15):
            for xs in compositions(total):
                assert validate_sequence(xs) == validate_by_axiom_walk(xs), xs
                checked += 1
        assert checked == 2**14 - 1

    def test_matches_axiom_walk_on_every_short_tuple_of_small_terms(self):
        # zero, negative and decreasing terms included: the package tests x_1 >= 2 and axiom 2
        # only, and this pins that axiom 1 follows from them
        checked = 0
        for n in range(1, 6):
            for xs in product(range(-2, 9), repeat=n):
                assert validate_sequence(xs) == validate_by_axiom_walk(xs), xs
                checked += 1
        assert checked == sum(11**n for n in range(1, 6))

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
        with pytest.raises(InvalidSequenceError, match=r"^2,1 violates the sequence axioms$"):
            ArfSequence((2, 1))

    @pytest.mark.parametrize(
        "terms", [[2, 2, 4], ("2", "2", "4"), iter([2, 2, 4]), (2.0, Fraction(4, 2), Int(4))]
    )
    def test_arf_sequence_keeps_the_terms_it_checked(self, terms):
        # a list, strings, an iterator or integral numbers are stored as the tuple of ints that
        # was validated
        q = ArfSequence(terms)
        assert q.terms == (2, 2, 4) and all(type(x) is int for x in q.terms)
        assert q == ArfSequence((2, 2, 4)) and hash(q) == hash(ArfSequence((2, 2, 4)))
        assert q.total == 8
        assert semigroup_of_sequence(q) == semigroup_of_sequence((2, 2, 4))


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
        with pytest.raises(NotInCovarietyError):
            sequence_of_semigroup(NumericalSemigroup.from_generators([5, 7, 9]))
        # the naturals' difference sequence is empty, which the axioms refuse
        with pytest.raises(NotInCovarietyError, match="^the naturals are not an Arf semigroup"):
            sequence_of_semigroup(NumericalSemigroup.natural())

    @pytest.mark.parametrize("gens", [[361, 363], [5, 7, 9], [1]])
    def test_one_short_refusal_for_a_non_arf_semigroup(self, gens):
        # F = 130,319 for <361, 363>: the message names F and m instead of listing the members
        S = NumericalSemigroup.from_generators(gens)
        messages = set()
        for call in (minimal_ar_generators, sequence_of_semigroup, children):
            with pytest.raises(NotInCovarietyError) as exc:
                call(S)
            messages.add(str(exc.value))
        assert len(messages) == 1 and len(messages.pop()) < 200

    def test_semigroups_of_sequences_pass_the_full_check(self):
        # an ArfSequence was validated when built, so its conversion skips validation
        for total in range(2, 21):
            for q in arf_sequences_with_total(total):
                S = semigroup_of_sequence(q)
                assert_checked(S)
                assert semigroup_of_sequence(q.terms) == S
                assert S.semigroup_type() == S.multiplicity() - 1  # Arf, so MED

    def test_masks_match_one_shift_per_partial_sum(self):
        for total in range(1, 31):
            for q in arf_sequences_with_total(total):
                run, mask = 0, 1
                for x in reversed(q.terms):
                    run += x
                    mask |= 1 << run
                assert semigroup_of_sequence(q).mask == mask, q

    def test_long_sequences_convert_in_linear_time(self):
        # one shift per term copied a mask as wide as the running sum: about 1.5 s here
        q = ArfSequence((2,) * 400_000)
        started = time.perf_counter()
        S = semigroup_of_sequence(q)
        assert time.perf_counter() - started < 0.25
        assert (S.frobenius, S.multiplicity()) == (799_999, 2)

    def test_sparse_sequences_convert_in_time_linear_in_the_total(self):
        # a bit per position, not a digit: a byte per position and its reversed copy took 0.6-0.7 s here
        started = time.perf_counter()
        S = semigroup_of_sequence((2, 10**8))
        assert time.perf_counter() - started < 0.25
        assert (S.frobenius, S.mask.bit_count()) == (10**8 + 1, 3)

    def test_round_trip_exhaustive_small_totals(self):
        for total in range(2, 21):
            for q in arf_sequences_with_total(total):
                S = semigroup_of_sequence(q)
                assert S.frobenius == total - 1
                assert sequence_of_semigroup(S).terms == q.terms


class TestRefinements:
    def test_known_splits(self):
        refined = list(iter_refinements((2, 2, 2, 8)))
        assert (4, 2, ArfSequence((2, 2, 2, 2, 6))) in refined
        assert (4, 3) not in {(i, a) for i, a, _ in refined}  # breaks the axioms
        assert (5, 2, ArfSequence((2, 2, 2, 2, 2, 4))) in iter_refinements((2, 2, 2, 2, 6))

    def test_first_position_boundary(self):
        assert [(i, a) for i, a, _ in iter_refinements((4, 8))] == [(1, 2), (2, 4)]  # 3 exceeds half of 4
        assert (1, 3) in {(i, a) for i, a, _ in iter_refinements((6, 8))}

    def test_admits_proper_refinement(self):
        assert admits_proper_refinement((2, 2, 2, 8))
        assert not admits_proper_refinement((2, 2, 2, 2, 2, 2, 2))
        assert not admits_proper_refinement((2,))
        assert admits_proper_refinement((7,))  # splits into (2, 5) or (3, 4)

    def test_member_tests_match_the_prefix_walk_on_every_composition_up_to_14(self):
        # invalid tuples included: both entry points refuse them
        for total in range(1, 15):
            for xs in compositions(total):
                assert_splits_match_the_prefix_walk(xs)

    @given(st.lists(st.integers(min_value=-6, max_value=14), min_size=1, max_size=8))
    def test_closed_form_matches_the_prefix_walk_on_any_terms(self, xs):
        # zero and negative terms make the partial sums repeat and fall; no such tuple is valid
        assert_splits_match_the_prefix_walk(tuple(xs))

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
        # all violate the axioms: (5, 2) splits as (2, 3, 2), itself invalid, (3, 2) has no split,
        # and zero and negative terms break x_1 >= 2
        for bad in ((5, 2), (3, 2), (0,), (-3,)):
            for call in (admits_proper_refinement, lambda xs: list(iter_refinements(xs))):
                with pytest.raises(InvalidSequenceError, match="violates the sequence axioms"):
                    call(bad)

    def test_closed_form_matches_revalidation(self):
        for total in range(2, 17):
            for q in arf_sequences_with_total(total):
                xs = q.terms
                splits = {(i, a) for i, a, _ in iter_refinements(q)}
                for i in range(1, len(xs) + 1):
                    for a in range(2, xs[i - 1]):
                        expected = validate_sequence(xs[: i - 1] + (a, xs[i - 1] - a) + xs[i:])
                        assert ((i, a) in splits) == expected

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

    def test_totals_above_the_tree_limit_plus_one_are_refused(self):
        # total F+1 walks Ar(F), one ArfSequence per member, so it takes the tree's limit on F
        assert len(arf_sequences_with_total(_TREE_LIMIT + 1)) == 10_381  # every member of Ar(90)
        for total in (_TREE_LIMIT + 2, 10**9):
            started = time.perf_counter()
            with pytest.raises(ScaleLimitError, match=f"Frobenius number {total - 1} refused \\(limit {_TREE_LIMIT}\\)"):
                arf_sequences_with_total(total)
            assert time.perf_counter() - started < 0.1  # refused before the walk
        assert arf_sequences_with_total(0) == [] and arf_sequences_with_total(-3) == []

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
