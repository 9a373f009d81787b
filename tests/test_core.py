"""Unit tests for the canonical semigroup representation and its operations."""

import math
import random
import re
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from apery_route import (
    generators_by_membership,
    med_frobenius_genus_formula,
    pseudo_frobenius_from_apery,
    special_gaps_from_apery,
)
from arfsemigroups import (
    EmptyInputError,
    InvalidFrobeniusError,
    NoGapsError,
    NotAMemberError,
    NotCofiniteError,
    NumericalSemigroup,
    ScaleLimitError,
    brute_all_semigroups,
    enumerate_ar,
)
from arfsemigroups.core import _DENSE, _canonical_key, _closure_mask, _iter_bits, _mask_of, _read_off, _selector
import member_shifts
from pair_fixpoint import sums_of
from full_check import assert_checked, count_full_checks, full_check_accepts


def sg(*gens):
    return NumericalSemigroup.from_generators(gens)


class Int(int):
    """An int subclass, read as the plain int it holds."""


class TestConstruction:
    def test_from_generators_basic(self):
        S = sg(5, 7, 9)
        assert S.frobenius == 13
        assert S.small_elements() == (0, 5, 7, 9, 10, 12)
        assert S.gaps() == (1, 2, 3, 4, 6, 8, 11, 13)

    def test_generator_order_and_duplicates_ignored(self):
        assert sg(9, 5, 7, 5) == sg(5, 7, 9)
        # integral numbers and integer strings are read as their ints
        assert sg(9.0, Fraction(10, 2), Int(7), "5") == sg(5, 7, 9)

    def test_gcd_failure(self):
        with pytest.raises(NotCofiniteError):
            sg(4, 6)
        with pytest.raises(NotCofiniteError):
            sg(3)

    def test_empty_and_invalid(self):
        with pytest.raises(EmptyInputError):
            NumericalSemigroup.from_generators([])
        with pytest.raises(ValueError):
            sg(0, 3)
        with pytest.raises(ValueError):
            sg(-2, 3)
        # int() would truncate these to <2, 3>
        for fractional in (2.5, Fraction(5, 2)):
            with pytest.raises(ValueError, match="is not an integer"):
                sg(fractional, 3)

    def test_one_generates_everything(self):
        assert sg(1).is_natural()
        assert sg(3, 5, 1).is_natural()
        assert sg(True, 3).is_natural()

    def test_scale_limit(self):
        with pytest.raises(ScaleLimitError):
            sg(2**20, 2**20 + 1)

    def test_delta(self):
        d = NumericalSemigroup.delta(5)
        assert d.small_elements() == (0,)
        assert d.frobenius == 5
        assert d == sg(6, 7, 8, 9, 10, 11)
        with pytest.raises(InvalidFrobeniusError, match=r"^frobenius must be >= 1, got 0$"):
            NumericalSemigroup.delta(0)

    def test_from_small_elements(self):
        S = NumericalSemigroup.from_small_elements(13, [0, 5, 7, 9, 10, 12])
        assert S == sg(5, 7, 9)

    def test_small_elements_follow_the_element_list_rule(self):
        # integer strings and integral numbers are read as their ints, as for generators
        assert NumericalSemigroup.from_small_elements(5, ["0", 3.0, Int(4), Fraction(4)]) == sg(3, 4)
        assert NumericalSemigroup.from_small_elements(5, iter([0, 3, 4])) == sg(3, 4)
        with pytest.raises(ValueError, match=r"^2\.5 is not an integer$"):
            NumericalSemigroup.from_small_elements(5, [0, 2.5])

    def test_small_elements_outside_the_range_are_refused(self):
        # the mask writer checks no range: -1 would wrap to the top bit of its last byte, which is F+1 at
        # F = 6 (so Delta(6) would come back), and 7 would set a bit beyond F+1; F+1 is always a member
        for F, smalls, got in ((6, [0, -1], "-1..0"), (5, [0, -1], "-1..0"), (5, [0, 7], "0..7"),
                               (5, [-3, 0, 9], "-3..9")):
            with pytest.raises(ValueError, match=rf"^small elements must lie in 0\.\.{F + 1}, got {got}$"):
                NumericalSemigroup.from_small_elements(F, smalls)
        assert NumericalSemigroup.from_small_elements(5, [0, 6]) == NumericalSemigroup.delta(5)

    def test_small_elements_read_their_frobenius_number_first(self):
        # F is read by the element-list rule and refused as the constructor refuses it, before
        # any element is range-checked or placed
        for F, smalls in ((-2, []), (-3, [0]), (0, []), (0, [0]), (-7, [0, 9])):
            with pytest.raises(ValueError, match=rf"^frobenius must be -1 or >= 1, got {F}$"):
                NumericalSemigroup.from_small_elements(F, smalls)
        with pytest.raises(ValueError, match=r"^5\.5 is not an integer$"):
            NumericalSemigroup.from_small_elements(5.5, [0, 6])
        assert NumericalSemigroup.from_small_elements(5.0, [0, 6]) == NumericalSemigroup.delta(5)
        assert NumericalSemigroup.from_small_elements("5", [0, 6]) == NumericalSemigroup.delta(5)
        assert NumericalSemigroup.from_small_elements(-1, [0]) == NumericalSemigroup.natural()

    def test_mask_validation(self):
        for frobenius, mask, message in [
            (5, 0b1000001 | (1 << 5), "mask must contain 0 and frobenius"),  # frobenius bit set
            (5, 0b1000110, "mask must contain 0 and frobenius"),  # 0 left out
            (5, 0b1000111, r"not additively closed: 1 \+ 2 = 3 is missing"),  # 1,2 in but 3=1+2 missing
            (-1, 3, "the naturals are encoded as frobenius=-1, mask=1"),
            (0, 3, "frobenius must be -1 or >= 1, got 0"),
            (5, 0b1000001 | (1 << 7), r"mask has bits beyond frobenius\+1"),
        ]:
            with pytest.raises(ValueError, match=message):
                NumericalSemigroup(frobenius, mask)

    def test_full_check_runs_only_on_masks_from_outside(self, monkeypatch):
        calls = count_full_checks(monkeypatch)
        S = NumericalSemigroup.from_generators([301, 303])  # F = 90,599
        NumericalSemigroup.natural(), NumericalSemigroup.delta(S.frobenius)
        assert calls == [0]
        NumericalSemigroup(13, sg(5, 7, 9).mask)
        assert calls == [1]
        NumericalSemigroup.from_small_elements(13, [0, 5, 7, 9, 10, 12])
        assert calls == [2]

    def test_membership(self):
        S = sg(5, 7, 9)
        assert 0 in S and 5 in S and 14 in S and 10**9 in S
        assert 13 not in S and 4 not in S and -1 not in S
        # one rule on both sides of F = 5: a fractional part is no member, an integral value is its int
        d = NumericalSemigroup.delta(5)
        assert 2.5 not in d and 7.5 not in d and Fraction(13, 2) not in d and -0.5 not in d
        assert 0.0 in d and 6.0 in d and 7.0 in d and Fraction(12, 2) in d
        assert 2.0 not in d and True not in d  # True is 1, a gap
        # a str or bytes is no member, as "7" in range(10) is False; `x % 1` on one would format it
        assert "7" not in d and b"7" not in d and "%d" not in d and "" not in d
        assert "1" not in NumericalSemigroup.natural()
        # nor is anything on which `x % 1` is undefined, as None in range(10) is False
        for x in (None, [1], (7,), 1j, 7 + 0j, object()):
            assert x not in d and x not in S and x not in NumericalSemigroup.natural()

    def test_adjoin_remove_and_apery_take_the_membership_rule(self):
        S = sg(3, 5)  # F = 7; gaps 1, 2, 4, 7
        for one in (1.0, Fraction(1)):  # an integral value is used as its int
            assert S.adjoin(7 * one) == S.adjoin(7)
            assert S.remove(3 * one) == S.remove(3)
            assert S.apery_set(5 * one) == S.apery_set(5) and type(S.apery_set(5 * one)) is tuple
        with pytest.raises(ValueError, match="^not additively closed"):
            S.adjoin(4.0)  # 4 + 3 = 7 is a gap, as for adjoin(4)
        # a fractional part is no member, below F and above it, nor is a str, bytes or a non-number;
        # the refusal quotes the argument with repr, so "7" does not read as the gap 7
        for x in (2.5, 7.5, Fraction(9, 2), "7", "3", b"7", None, [7], 7j):
            with pytest.raises(NotAMemberError, match=rf"^{re.escape(repr(x))} is not a gap$"):
                S.adjoin(x)
            with pytest.raises(NotAMemberError, match=rf"^{re.escape(repr(x))} is not a member in \[1, frobenius\]$"):
                S.remove(x)
            with pytest.raises(NotAMemberError, match=rf"^{re.escape(repr(x))} is not a nonzero member$"):
                S.apery_set(x)
        with pytest.raises(NotAMemberError, match="^'7' is not a gap$"):
            S.adjoin("7")


class TestAccessors:
    def test_invariants_5_7_9(self):
        S = sg(5, 7, 9)
        assert S.multiplicity() == 5
        assert S.embedding_dim() == 3
        assert S.genus() == 8
        assert S.small_count() == 6

    def test_invariants_delta5(self):
        d = NumericalSemigroup.delta(5)
        assert (d.multiplicity(), d.embedding_dim(), d.genus(), d.small_count()) == (6, 6, 5, 1)
        assert d.minimal_generators() == (6, 7, 8, 9, 10, 11)

    def test_naturals(self):
        N = NumericalSemigroup.natural()
        assert N.multiplicity() == 1
        assert N.genus() == 0
        assert N.small_count() == 0
        assert N.minimal_generators() == (1,)
        assert N.small_elements() == () and N.gaps() == ()
        assert repr(N) == "NumericalSemigroup.natural()"

    def test_gap_count_complements_small_count(self):
        for gens in [(2, 7), (3, 7, 8), (4, 6, 21, 23), (5, 8, 9, 12)]:
            S = sg(*gens)
            assert S.genus() + S.small_count() == S.frobenius + 1

    def test_minimal_generators_regenerate(self):
        for gens in [(4, 6, 21, 23), (5, 8, 9, 12), (2, 7), (7, 9, 11, 13)]:
            S = sg(*gens)
            assert NumericalSemigroup.from_generators(S.minimal_generators()) == S

    def test_members_upto(self):
        assert tuple(x for x in range(9) if x in sg(2, 7)) == (0, 2, 4, 6, 7, 8)


class TestApery:
    def test_apery_5_7_9(self):
        ap = sg(5, 7, 9).apery_set(5)
        assert tuple(sorted(ap)) == (0, 7, 9, 16, 18)
        assert ap == (0, 16, 7, 18, 9)  # indexed by residue

    def test_apery_any_member_modulus(self):
        S = sg(5, 7, 9)
        ap = S.apery_set(7)
        assert len(ap) == 7
        assert all(w % 7 == i for i, w in enumerate(ap))
        assert all(w in S and (w - 7) not in S for w in ap if w)

    def test_apery_nonmember_rejected(self):
        with pytest.raises(NotAMemberError):
            sg(5, 7, 9).apery_set(6)
        with pytest.raises(NotAMemberError):
            sg(5, 7, 9).apery_set(0)
        for n in (2.5, 7.5):  # below and above F = 5
            with pytest.raises(NotAMemberError, match=rf"^{n} is not a nonzero member$"):
                NumericalSemigroup.delta(5).apery_set(n)

    def test_apery_naturals(self):
        assert NumericalSemigroup.natural().apery_set(1) == (0,)


class TestGapInvariants:
    def test_pseudo_frobenius_and_special_gaps(self):
        S = sg(5, 7, 9)
        assert S.pseudo_frobenius() == (11, 13)
        assert S.semigroup_type() == 2
        assert S.special_gaps() == (11, 13)

    def test_delta_pseudo_frobenius(self):
        d = NumericalSemigroup.delta(5)
        assert d.pseudo_frobenius() == (1, 2, 3, 4, 5)
        assert d.special_gaps() == (3, 4, 5)

    def test_special_gaps_5_8_9_12(self):
        assert sg(5, 8, 9, 12).special_gaps() == (4, 7, 11)

    def test_naturals_have_none(self):
        N = NumericalSemigroup.natural()
        with pytest.raises(NoGapsError):
            N.pseudo_frobenius()
        # refused by pseudo_frobenius, which special_gaps filters
        with pytest.raises(NoGapsError, match="^the naturals have no pseudo-Frobenius numbers$"):
            N.special_gaps()

    def test_frobenius_is_always_special(self):
        for gens in [(2, 7), (5, 7, 9), (4, 6, 21, 23), (3, 7, 8)]:
            S = sg(*gens)
            assert S.frobenius in S.special_gaps()


def assert_gap_invariants_match_apery_route(S):
    """Bitmask pseudo-Frobenius numbers, special gaps, generators and MED against the reference route."""
    m = S.multiplicity()
    for n in (m, S.frobenius + 1):  # any nonzero member gives the same answer
        ap = S.apery_set(n)
        assert S.pseudo_frobenius() == pseudo_frobenius_from_apery(ap), (S, n)
        assert S.special_gaps() == special_gaps_from_apery(ap), (S, n)
    assert S.semigroup_type() == len(S.pseudo_frobenius())
    gens = S.minimal_generators()
    assert gens == generators_by_membership(S), S
    # MED by definition: the minimal generators are m and the nonzero Apery elements mod m
    expected = tuple(sorted(set(S.apery_set(m)) - {0} | {m}))
    assert S.is_med() == (gens == expected), S


class TestBitmaskInvariantsAgainstApery:
    def test_every_tree_node_up_to_f30(self):
        for F in range(1, 31):
            for S in enumerate_ar(F).semigroups():
                assert_gap_invariants_match_apery_route(S)

    def test_oracle_family_up_to_f14(self):
        for F in range(1, 15):
            for S in brute_all_semigroups(F):
                assert_gap_invariants_match_apery_route(S)


@given(st.lists(st.integers(min_value=2, max_value=60), min_size=1, max_size=5))
def test_random_generators_gap_invariants_match_apery_route(gens):
    assume(math.gcd(*gens) == 1)
    S = NumericalSemigroup.from_generators(gens)
    assert_gap_invariants_match_apery_route(S)


def assert_matches_member_shifts(S):
    """Apery-mask generators and pseudo-Frobenius numbers and zero-run sequences against
    the member-shift rules and the element list."""
    assert S.minimal_generators() == member_shifts.minimal_generators(S), S
    if not S.is_natural():
        assert S._pseudo_frobenius_mask() == member_shifts.pseudo_frobenius_mask(S), S
        assert S.difference_sequence() == member_shifts.difference_sequence(S), S


class TestAperyMaskAgainstMemberShifts:
    def test_every_tree_node_up_to_f40(self):
        for F in range(1, 41):
            for S in enumerate_ar(F).semigroups():
                assert_matches_member_shifts(S)

    def test_oracle_family_up_to_f14(self):
        assert_matches_member_shifts(NumericalSemigroup.natural())
        for F in range(1, 15):
            for S in brute_all_semigroups(F):
                assert_matches_member_shifts(S)

    def test_query_shapes(self):
        # the Arf inputs of the benchmark's check and minimal-gens commands, up to F near 3,000
        for k in range(1, 501):
            assert_matches_member_shifts(sg(2, 2 * k + 1))
            assert_matches_member_shifts(sg(3, 3 * k + 1, 3 * k + 2))

    def test_two_generators_near_the_sieve_limit(self):
        assert_matches_member_shifts(sg(361, 363))  # 131,043 bits sieved, F = 130,319


@given(st.lists(st.integers(min_value=2, max_value=200), min_size=1, max_size=6))
def test_random_generators_match_member_shifts(gens):
    assume(math.gcd(*gens) == 1)
    assert_matches_member_shifts(NumericalSemigroup.from_generators(gens))


def _lowest_bit_loop(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask &= mask - 1


class TestIterBits:
    def test_matches_the_lowest_bit_loop(self):
        rng = random.Random(7)
        masks = [0, 1, *(1 << k for k in (1, 2, 63, 64, 65, 1000))]
        masks += [(1 << k) - 1 for k in (1, 2, 63, 64, 65, 1000)]
        masks += [rng.getrandbits(k) for k in (3, 64, 200, 5000) for _ in range(5)]
        # a sparse 2^20-bit mask keeps the reference loop (O(bits) per element) quick
        wide = 1 << ((1 << 20) - 1)
        for _ in range(500):
            wide |= 1 << rng.randrange(1 << 20)
        masks.append(wide)
        # one set bit in _DENSE or more is selected from all bits at once, fewer are scanned:
        # masks of 64 * _DENSE bits with 64 set, one more (the lowest clear bit set) and one fewer
        width = 64 * _DENSE
        at = [(1 << (width - 1)) | sum(1 << b for b in rng.sample(range(width - 1), 63)) for _ in range(5)]
        above = [mask | (mask + 1) for mask in at]
        below = [mask & (mask - 1) for mask in at]
        assert all(_selector(mask) is not None for mask in at + above + [(1 << width) - 1])
        assert all(_selector(mask) is None for mask in below + [wide])
        masks += at + above + below
        masks.append(1 | (1 << 30_000) | (1 << ((1 << 16) - 1)))  # three members in 2^16 bits
        for mask in masks:
            assert list(_iter_bits(mask)) == list(_lowest_bit_loop(mask))

    def test_three_members_in_2_16_bits_are_scanned(self):
        # a selection would walk 2^16 positions to keep three: 1.8 ms against 0.12 ms a mask
        mask = 1 | (1 << 30_000) | (1 << ((1 << 16) - 1))
        started = time.perf_counter()
        for _ in range(100):
            assert list(_iter_bits(mask)) == [0, 30_000, (1 << 16) - 1]
        assert time.perf_counter() - started < 0.1


# widths up to 3,000, with the byte boundaries 8k and 8k + 1 drawn on purpose
_WIDTHS = st.one_of(
    st.integers(1, 3_000), st.integers(1, 375).map(lambda k: 8 * k), st.integers(0, 374).map(lambda k: 8 * k + 1))


class TestMaskOf:
    @given(st.data())
    def test_matches_one_shift_per_distinct_point(self, data):
        width = data.draw(_WIDTHS)
        ends = st.sampled_from((0, width - 1, (width - 1) & ~7))  # the last byte's first position
        points = data.draw(st.lists(st.one_of(st.integers(0, width - 1), ends), max_size=40))
        form = data.draw(st.sampled_from((list, set, iter)))  # a one-shot iterator too
        assert _mask_of(form(points), width) == sum(1 << p for p in set(points))

    def test_every_position_of_a_width(self):
        for width in (1, 7, 8, 9, 16, 17, 3_000):
            assert _mask_of(range(width), width) == (1 << width) - 1
            assert _mask_of((), width) == 0


def _sums_loop(A, k):
    """<A> over [0, k] for a mask A, by the literal rule of ``pair_fixpoint.sums_of``."""
    return sums_of([a for a in range(1, A.bit_length()) if (A >> a) & 1], k)


class TestClosureMask:
    def test_matches_the_literal_loop(self):
        rng = random.Random(24)
        for _ in range(300):
            k = rng.randrange(300)
            if rng.random() < 0.5:  # a few elements
                A = sum(1 << rng.randrange(k + 1) for _ in range(rng.randrange(5)))
            else:  # about one bit in eight
                A = rng.getrandbits(k + 1) & rng.getrandbits(k + 1) & rng.getrandbits(k + 1)
            limit, expected = (1 << (k + 1)) - 1, _sums_loop(A, k)
            assert _closure_mask(A, limit) == expected, (A, k)

    def test_bits_above_the_limit_are_ignored(self):
        # a bit above the limit that was not masked off would stay missing, and the loop never end
        A, k, result = 1 << 400 | 1 << 7 | 1 << 5, 300, []
        worker = threading.Thread(target=lambda: result.append(_closure_mask(A, (1 << (k + 1)) - 1)), daemon=True)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        assert result == [_sums_loop(A, k)]  # the sums of 5 and 7 up to k


class TestPredicates:
    def test_is_med(self):
        assert sg(4, 6, 21, 23).is_med()
        assert not sg(5, 7, 9).is_med()
        assert sg(4, 7, 9, 10).is_med()
        assert NumericalSemigroup.natural().is_med()
        assert NumericalSemigroup.delta(7).is_med()

    def test_is_arf(self):
        assert sg(4, 6, 21, 23).is_arf()
        assert not sg(4, 17, 18, 23).is_arf()
        assert NumericalSemigroup.delta(9).is_arf()
        assert NumericalSemigroup.natural().is_arf()
        assert not sg(5, 7, 9).is_arf()

    def test_difference_sequence(self):
        assert sg(4, 6, 21, 23).difference_sequence() == (2, 2, 2, 2, 2, 2, 2, 2, 4)
        assert sg(4, 17, 18, 23).difference_sequence() == (2, 1, 1, 4, 4, 4, 4)
        assert NumericalSemigroup.delta(5).difference_sequence() == (6,)
        assert sg(2, 7).difference_sequence() == (2, 2, 2)
        with pytest.raises(NoGapsError):
            NumericalSemigroup.natural().difference_sequence()


def small_family():
    """Every tree node for F <= 20 and every oracle semigroup for F <= 12."""
    family = [S for F in range(1, 21) for S in enumerate_ar(F).semigroups()]
    return family + [S for F in range(1, 13) for S in brute_all_semigroups(F)]


class TestElementOps:
    def test_remove_multiplicity(self):
        assert sg(2, 7).remove_multiplicity() == sg(4, 6, 7, 9)
        assert NumericalSemigroup.delta(4).remove_multiplicity() == NumericalSemigroup.delta(5)
        assert NumericalSemigroup.natural().remove_multiplicity() == NumericalSemigroup.delta(1)

    def test_remove_minimal_generator(self):
        S = sg(6, 8, 10, 31, 33, 35)
        assert S.remove(6).small_elements() == (0, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28)

    def test_remove_rejects_non_members_and_large(self):
        S = sg(2, 7)
        with pytest.raises(NotAMemberError):
            S.remove(3)
        with pytest.raises(NotAMemberError):
            S.remove(7)  # above the Frobenius number

    def test_remove_non_generator_breaks_closure(self):
        with pytest.raises(ValueError):
            sg(2, 7).remove(4)  # 4 = 2 + 2 must stay

    def test_adjoin_special_gap(self):
        S = sg(5, 7, 9)
        T = S.adjoin(11)
        assert 11 in T and T.frobenius == 13

    def test_adjoin_frobenius_shrinks(self):
        T = sg(2, 7).adjoin(5)
        assert T.frobenius == 3
        assert T == sg(2, 5)
        assert NumericalSemigroup.delta(1).adjoin(1).is_natural()

    def test_adjoin_rejects(self):
        with pytest.raises(NotAMemberError):
            sg(2, 7).adjoin(2)
        with pytest.raises(ValueError):
            sg(5, 7, 9).adjoin(4)  # 4 + 5 = 9 fine but 4 + 4 = 8 missing

    def test_adjoin_and_remove_reject_exactly_what_the_full_check_rejects(self):
        cases = 0
        for S in small_family():
            F = S.frobenius
            for x in S.gaps():
                if x == F:  # adjoining F always stays closed
                    assert_checked(S.adjoin(x))
                    continue
                accepted = full_check_accepts(F, S.mask | (1 << x))
                try:
                    T = S.adjoin(x)
                except ValueError:
                    assert not accepted, (S, x)
                else:
                    assert accepted and T == NumericalSemigroup(F, S.mask | (1 << x)), (S, x)
                cases += 1
            for x in S.small_elements()[1:]:
                accepted = full_check_accepts(F, S.mask & ~(1 << x))
                try:
                    T = S.remove(x)
                except ValueError:
                    assert not accepted, (S, x)
                else:
                    assert accepted and T == NumericalSemigroup(F, S.mask & ~(1 << x)), (S, x)
                cases += 1
        assert cases == 7022

    def test_remove_multiplicity_chains_pass_the_full_check(self):
        for S in small_family() + [NumericalSemigroup.natural()]:
            for _ in range(S.small_count() + 1):  # down to {0, F+1, ->} and one step past it
                S = S.remove_multiplicity()
                assert_checked(S)

    def test_read_off_passes_the_full_check(self):
        # S read at widths F, F + 1 and F + 5, and S with F adjoined, whose Frobenius number moves down
        for S in small_family():
            F = S.frobenius
            for k in (F, F + 1, F + 5):
                mask = S._extended_mask(k)
                assert _read_off(mask, k) == S and _read_off(mask & ((2 << k) - 1), k) == S, (S, k)
                T = _read_off(mask | 1 << F, k)
                assert_checked(T)
                assert T.frobenius == max(S.gaps()[:-1], default=-1) and T._extended_mask(k) == mask | 1 << F
        for k in (0, 1, 5):
            assert _read_off((2 << k) - 1, k) == NumericalSemigroup.natural()

    def test_associated_chain(self):
        # stripping the multiplicity small_count - 1 times reaches {0, F+1, ->}
        chain = [sg(2, 7)]
        for _ in range(sg(2, 7).small_count() - 1):
            chain.append(chain[-1].remove_multiplicity())
        assert chain == [sg(2, 7), sg(4, 6, 7, 9), NumericalSemigroup.delta(5)]


class TestSetAlgebra:
    def test_intersection(self):
        assert sg(3, 7, 8).intersect(sg(2, 7)) == NumericalSemigroup.delta(5)
        A, B = sg(2, 7), sg(3, 4)
        inter = A.intersect(B)
        assert inter.frobenius == max(A.frobenius, B.frobenius)
        assert inter.small_elements() == (0, 4)

    def test_intersection_with_naturals(self):
        S = sg(5, 7, 9)
        N = NumericalSemigroup.natural()
        assert S.intersect(N) == S and N.intersect(S) == S
        assert N.intersect(N) == N

    def test_issubset(self):
        assert NumericalSemigroup.delta(5).issubset(sg(2, 7))
        assert not sg(2, 7).issubset(sg(3, 7, 8))
        assert sg(2, 7).issubset(NumericalSemigroup.natural())
        assert not NumericalSemigroup.natural().issubset(sg(2, 7))
        assert NumericalSemigroup.natural().issubset(NumericalSemigroup.natural())
        assert not NumericalSemigroup.delta(4).issubset(NumericalSemigroup.delta(5))

    def test_hash_and_equality(self):
        assert len({sg(5, 7, 9), sg(9, 7, 5), sg(2, 7)}) == 2


class TestMedFormula:
    def test_worked_values(self):
        assert med_frobenius_genus_formula([4, 6, 7, 9]) == (5, Fraction(4))
        assert med_frobenius_genus_formula([2, 7]) == (5, Fraction(3))
        assert med_frobenius_genus_formula([4, 7, 9, 10]) == (6, Fraction(5))

    def test_matches_accessors(self):
        for gens in [(4, 6, 21, 23), (3, 7, 8), (7, 8, 9, 10, 11, 12, 13)]:
            S = NumericalSemigroup.from_generators(gens)
            frob, genus = med_frobenius_genus_formula(gens)
            assert frob == S.frobenius
            assert genus == Fraction(S.genus())

    def test_rejects_non_med(self):
        with pytest.raises(AssertionError):
            med_frobenius_genus_formula([5, 7, 9])
        with pytest.raises(AssertionError):
            med_frobenius_genus_formula([2, 7, 9])  # 9 = 2 + 7 is not minimal

    def test_rejects_naturals(self):
        with pytest.raises(AssertionError):
            med_frobenius_genus_formula([1])


@given(st.lists(st.integers(min_value=2, max_value=60), min_size=1, max_size=5))
def test_random_generators_baseline_invariants(gens):
    assume(math.gcd(*gens) == 1)
    S = NumericalSemigroup.from_generators(gens)
    assert_checked(S)
    assert S.genus() + S.small_count() == S.frobenius + 1
    assert S.embedding_dim() <= S.multiplicity()
    assert NumericalSemigroup.from_generators(S.minimal_generators()) == S
    assert all(g in S for g in gens)
    assert S.frobenius not in S


# a single generator >= 2 never has gcd 1, so both lists start at two elements
@given(
    st.lists(st.integers(min_value=2, max_value=40), min_size=2, max_size=4),
    st.lists(st.integers(min_value=2, max_value=40), min_size=2, max_size=4),
)
def test_random_intersection_frobenius_is_max(a, b):
    assume(math.gcd(*a) == 1 and math.gcd(*b) == 1)
    A = NumericalSemigroup.from_generators(a)
    B = NumericalSemigroup.from_generators(b)
    inter = A.intersect(B)
    for S in (A, B, inter):
        assert_checked(S)
    assert inter.frobenius == max(A.frobenius, B.frobenius)
    assert inter.issubset(A) and inter.issubset(B)


@given(
    st.integers(min_value=1, max_value=120).flatmap(
        lambda F: st.tuples(st.just(F), st.lists(st.integers(0, (1 << (F - 1)) - 1), min_size=2, max_size=30))
    )
)
def test_canonical_key_orders_by_depth_then_small_elements(case):
    # any masks of one F: bits 0 and F+1 set, F clear, and bits 1..F-1 drawn
    F, middles = case
    masks = [1 | middle << 1 | 1 << (F + 1) for middle in middles]
    literal = sorted(masks, key=lambda mask: (mask.bit_count(), [s for s in range(F) if mask >> s & 1]))
    assert sorted(masks, key=_canonical_key) == literal
