"""Smallest Arf semigroup with a fixed Frobenius number containing a given set.

A finite set X of positive integers at most F admits such a hull exactly when
some Arf semigroup with Frobenius number F contains X; the hull is then the
intersection of all of them.  It is computed directly as a fixpoint instead:
start from the additive closure of X (everything above F is a member anyway)
and repeatedly add x + y - z for members x >= y >= z until nothing below F+1
changes.  X has no hull precisely when F itself shows up in the fixpoint.

The module also computes the minimal generating data of a member S relative
to this hull operator: the unique minimal set X with hull X = S, its size
(the rank), and the classification and count of the rank-one members.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .core import NumericalSemigroup, _closed, _closure_mask, _iter_bits
from .errors import InvalidFrobeniusError, ScaleLimitError
from .tree import _require_member_ar

# the fixpoint walks all member pairs of a bitmask over [0, F]
_HULL_LIMIT = 1 << 20


@dataclass(frozen=True)
class ClosureResult:
    """Outcome of the hull computation, with the added elements per round."""

    frobenius: int
    input_set: tuple[int, ...]
    is_ar_set: bool
    closure: NumericalSemigroup | None
    stages: tuple[tuple[int, ...], ...]


def ar_closure(X: Iterable[int], frobenius: int) -> ClosureResult:
    """Hull of X among Arf semigroups with the given Frobenius number.

    ``is_ar_set`` is false (with ``closure`` None) when no such semigroup
    contains X: either syntactically (some element is 0, negative, or beyond
    F) or because the fixpoint swallows F.
    """
    if frobenius < 1:
        raise InvalidFrobeniusError(f"frobenius must be >= 1, got {frobenius}")
    if frobenius > _HULL_LIMIT:
        raise ScaleLimitError(f"hull fixpoint over {frobenius} bits refused (limit {_HULL_LIMIT})")
    xs = tuple(sorted({int(x) for x in X}))
    if any(x < 1 or x > frobenius for x in xs):
        return ClosureResult(frobenius, xs, False, None, ())
    low = (1 << (frobenius + 1)) - 1
    cur = _closure_mask(xs, frobenius) if xs else 1
    stages: list[tuple[int, ...]] = []
    blocked = bool((cur >> frobenius) & 1)
    while not blocked:
        new = cur
        for y in _iter_bits(cur & ~1):
            at_least_y = cur >> y << y
            for z in _iter_bits(cur & ((1 << (y + 1)) - 1)):
                new |= (at_least_y << (y - z)) & low
        if new == cur:
            break
        stages.append(tuple(_iter_bits(new & ~cur)))
        cur = new
        blocked = bool((cur >> frobenius) & 1)
    if blocked:
        return ClosureResult(frobenius, xs, False, None, tuple(stages))
    hull = _closed(frobenius, cur | (1 << (frobenius + 1)))  # the z = 0 terms closed cur under +
    return ClosureResult(frobenius, xs, True, hull, tuple(stages))


def minimal_ar_generators(S: NumericalSemigroup) -> tuple[int, ...]:
    """The unique minimal X whose hull is S.

    A minimal generator x below F belongs to X exactly when S without x is
    still an Arf semigroup (its Frobenius number is unchanged by removing
    x < F).  Raises ``NotInCovarietyError`` for non-Arf input.
    """
    _require_member_ar(S)
    return tuple(
        x for x in S.minimal_generators() if x < S.frobenius and S.remove(x).is_arf()
    )


def rank_one_catalog(frobenius: int) -> list[NumericalSemigroup]:
    """All rank-one members: multiples of m up to F plus everything past F,
    for each m with 2 <= m < F not dividing F.  Ascending in m."""
    if frobenius < 2:
        raise InvalidFrobeniusError(f"frobenius must be >= 2, got {frobenius}")
    top = 1 << (frobenius + 1)  # the multiples of m up to F miss F and are closed
    return [_closed(frobenius, _closure_mask([m], frobenius) | top) for m in range(2, frobenius) if frobenius % m]


def _divisor_count(n: int) -> int:
    count = 0
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            count += 1 if d * d == n else 2
    return count


def count_rank_one(frobenius: int) -> int:
    """Size of the rank-one catalog without building it: F minus the number
    of divisors of F."""
    if frobenius < 2:
        raise InvalidFrobeniusError(f"frobenius must be >= 2, got {frobenius}")
    return frobenius - _divisor_count(frobenius)
