"""Each public entry point with no timing test of its own, at its worst known input, against the
2 s budget that every accepted input keeps."""

import time

import pytest

from arfsemigroups import (
    NumericalSemigroup,
    arf_sequences_with_total,
    children,
    count_rank_one,
    maximal_elements,
    rank_one_catalog,
)
from arfsemigroups.closure import _COUNT_LIMIT

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
    # trial division runs to sqrt F on the largest prime at or below the limit
    "count_rank_one(2**44 - 17)": (lambda: count_rank_one(_COUNT_LIMIT - 17), _COUNT_LIMIT - 19),
}


@pytest.mark.parametrize("call", WORST)
def test_worst_known_input_finishes_in_time(call):
    run, expected = WORST[call]
    started = time.perf_counter()
    assert run() == expected
    assert time.perf_counter() - started < 2.0
