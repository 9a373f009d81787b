"""Sanity checks for the brute-force reference implementations."""

import pytest

from arfsemigroups import (
    InvalidFrobeniusError,
    NumericalSemigroup,
    ScaleLimitError,
    brute_all_semigroups,
    brute_is_arf,
)
from arfsemigroups.oracle import _MAX_BRUTE_FROBENIUS


def test_frobenius_one():
    assert brute_all_semigroups(1) == [NumericalSemigroup.delta(1)]


def test_frobenius_four_exhaustive():
    assert [S.small_elements() for S in brute_all_semigroups(4)] == [(0,), (0, 3)]


def test_frobenius_five_exhaustive():
    assert [S.small_elements() for S in brute_all_semigroups(5)] == [
        (0,),
        (0, 2, 4),
        (0, 3),
        (0, 3, 4),
        (0, 4),
    ]


def test_every_result_has_requested_frobenius():
    for F in range(1, 11):
        for S in brute_all_semigroups(F):
            assert S.frobenius == F
            assert F not in S and F + 1 in S


def test_known_members_present():
    smalls = {S.small_elements() for S in brute_all_semigroups(5)}
    for gens in [(6, 7, 8, 9, 10, 11), (3, 7, 8), (4, 6, 7, 9), (2, 7)]:
        assert NumericalSemigroup.from_generators(gens).small_elements() in smalls


def test_scale_refusal():
    with pytest.raises(ScaleLimitError, match=r"\(limit F <= 24\)$"):
        brute_all_semigroups(_MAX_BRUTE_FROBENIUS + 1)
    with pytest.raises(InvalidFrobeniusError, match=r"^frobenius must be >= 1, got 0$"):
        brute_all_semigroups(0)


def test_brute_is_arf_examples():
    assert brute_is_arf(NumericalSemigroup.from_generators([4, 6, 21, 23]))
    assert not brute_is_arf(NumericalSemigroup.from_generators([4, 17, 18, 23]))
    assert brute_is_arf(NumericalSemigroup.delta(9))
    assert brute_is_arf(NumericalSemigroup.natural())
    assert not brute_is_arf(NumericalSemigroup.from_generators([3, 4]))


def test_brute_is_arf_agrees_with_fast_path():
    for F in range(1, 11):
        for S in brute_all_semigroups(F):
            assert brute_is_arf(S) == S.is_arf()
