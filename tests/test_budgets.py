"""Each public entry point with no timing test of its own, at its worst known input, against the
2 s budget that every accepted input keeps."""

import time

import pytest

from arfsemigroups import (
    NumericalSemigroup,
    ar_closure,
    arf_sequences_with_total,
    children,
    count_rank_one,
    maximal_elements,
    rank_one_catalog,
)
from arfsemigroups.cli import _hull_lists
from arfsemigroups.closure import _COUNT_LIMIT, _HULL_LIMIT


def hull_record(X, F):
    """What ``arfsg closure`` computes for X: the hull, and its lists read off the chain's stages."""
    res = ar_closure(X, F)
    small, gens, minimal = _hull_lists(res)
    return len(res.stages), len(small), len(gens), minimal


# the call, and what it must return; each input is at its limit or at the size its docstring states
WORST = {
    # 65,534 generators through the sieve, their mask written in one linear pass (``core._mask_of``):
    # one shift per generator would copy the growing mask each time, 62 ms of 67 here
    "from_generators(range(2, 65_536))": (
        lambda: NumericalSemigroup.from_generators(range(2, 65_536)).frobenius, 1),
    # the quadratic closure check with the most small elements: every number above F/2
    "from_small_elements(64_001, [0, *range(32_001, 64_001)])": (
        lambda: NumericalSemigroup.from_small_elements(64_001, [0, *range(32_001, 64_001)]).mask.bit_count(),
        32_002),
    # output-bound: one child per e in [F/2, F - 2]
    "children(delta(16_000))": (lambda: len(children(NumericalSemigroup.delta(16_000))), 7_999),
    "rank_one_catalog(1_500)": (lambda: len(rank_one_catalog(1_500)), 1_500 - 24),
    "maximal_elements(90)": (lambda: len(maximal_elements(90)), 926),
    # the members of Ar(90), one sequence each
    "arf_sequences_with_total(91)": (lambda: len(arf_sequences_with_total(91)), 10_381),
    # the most stages found at F = 2^16, 19 of one running sum each: the hull whose difference sequence,
    # top down, is the Fibonacci numbers 2, 3, 5, ..., 10,946 and then 36,883, above their total; its
    # minimal system is the 3 elements below.  Top down, each new step is at least the sum of the two
    # terms above it, so 21 distinct steps from 2 up would sum past F + 1, and the top step adds a
    # running sum up to F only when repeated; a search of the sequences that start 2, 2 and repeat no
    # other step found none with 20 stages, and random 3-element sets reach 14
    "closure of (36_883, 47_829, 54_594) at 2**16": (
        lambda: hull_record((36_883, 47_829, 54_594), _HULL_LIMIT), (19, 20, 36_883, (36_883, 47_829, 54_594))),
    # the densest accepted hull: every even number up to F, one stage of 32,767 running sums
    "closure of [2] at 2**16 - 1": (lambda: hull_record([2], _HULL_LIMIT - 1), (1, 32_768, 2, (2,))),
    # trial division runs to sqrt F on the largest prime at or below the limit
    "count_rank_one(2**44 - 17)": (lambda: count_rank_one(_COUNT_LIMIT - 17), _COUNT_LIMIT - 19),
}


@pytest.mark.parametrize("call", WORST)
def test_worst_known_input_finishes_in_time(call):
    run, expected = WORST[call]
    started = time.perf_counter()
    assert run() == expected
    assert time.perf_counter() - started < 2.0
