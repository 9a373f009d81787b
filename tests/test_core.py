"""Unit tests for the canonical semigroup representation and its operations."""

import math
import random
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
from arfsemigroups.core import _iter_bits


def sg(*gens):
    return NumericalSemigroup.from_generators(gens)


class TestConstruction:
    def test_from_generators_basic(self):
        S = sg(5, 7, 9)
        assert S.frobenius == 13
        assert S.small_elements() == (0, 5, 7, 9, 10, 12)
        assert S.gaps() == (1, 2, 3, 4, 6, 8, 11, 13)

    def test_generator_order_and_duplicates_ignored(self):
        assert sg(9, 5, 7, 5) == sg(5, 7, 9)

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

    def test_one_generates_everything(self):
        assert sg(1).is_natural()
        assert sg(3, 5, 1).is_natural()

    def test_scale_limit(self):
        with pytest.raises(ScaleLimitError):
            sg(2**20, 2**20 + 1)

    def test_delta(self):
        d = NumericalSemigroup.delta(5)
        assert d.small_elements() == (0,)
        assert d.frobenius == 5
        assert d == sg(6, 7, 8, 9, 10, 11)
        with pytest.raises(InvalidFrobeniusError):
            NumericalSemigroup.delta(0)

    def test_from_small_elements(self):
        S = NumericalSemigroup.from_small_elements(13, [0, 5, 7, 9, 10, 12])
        assert S == sg(5, 7, 9)

    def test_mask_validation(self):
        with pytest.raises(ValueError):
            NumericalSemigroup(5, 0b1000001 | (1 << 5))  # frobenius bit set
        with pytest.raises(ValueError):
            NumericalSemigroup(5, 0b1000110)  # 1,2 in but 3=1+2 missing

    def test_membership(self):
        S = sg(5, 7, 9)
        assert 0 in S and 5 in S and 14 in S and 10**9 in S
        assert 13 not in S and 4 not in S and -1 not in S


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
        with pytest.raises(NoGapsError):
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
        for mask in masks:
            assert list(_iter_bits(mask)) == list(_lowest_bit_loop(mask))


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

    def test_issubset(self):
        assert NumericalSemigroup.delta(5).issubset(sg(2, 7))
        assert not sg(2, 7).issubset(sg(3, 7, 8))
        assert sg(2, 7).issubset(NumericalSemigroup.natural())
        assert not NumericalSemigroup.natural().issubset(sg(2, 7))
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
    assert inter.frobenius == max(A.frobenius, B.frobenius)
    assert inter.issubset(A) and inter.issubset(B)
