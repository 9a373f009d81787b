"""Smallest Arf semigroup with a fixed Frobenius number containing a given set.

A finite set X of positive integers at most F admits such a hull exactly when
some Arf semigroup with Frobenius number F contains X; the hull is then the
intersection of all of them.  Every such semigroup contains T_0, the
additive closure <X> together with everything above F, so the hull is the
Arf closure of T_0, provided F is not in it.  That closure is read off Lipman's multiplicity chain (J. Lipman,
"Stable ideals and Arf rings", 1971; Rosales, Garcia-Sanchez, Garcia-Garcia
and Branco, "Arf numerical semigroups", 2004): Arf(T) is 0 together with
m + Arf(<T - m>), where m = m(T) is the multiplicity and T - m holds the
t - m for the positive members t.  So with m_i = m(T_i) and
T_{i+1} = <T_i - m_i>, the hull's members are 0, m_0, m_0 + m_1, ...: its
difference sequence, read from the bottom up.  X has no hull precisely when
F is one of these running sums.

The module also computes the minimal generating data of a member S relative
to this hull operator: the unique minimal set X with hull X = S, its size
(the rank), and the classification and count of the rank-one members.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .core import NumericalSemigroup, _add_multiples, _closed, _closure_mask, _iter_bits
from .errors import InvalidFrobeniusError, ScaleLimitError
from .sequences import validate_sequence
from .tree import _require_member_ar

# The chain shifts a bitmask over [0, F] per step and can take F/3 steps, so its cost is
# quadratic in F.  Budget: every accepted F finishes within 2 s.  The slowest inputs found,
# [5, 52272, 52273, 52279, 52283, 52284], [3, F - 2] and [3, 0.64 F], took 0.8 s at 2^16
# (CPython 3.11, shared 2-core Xeon); at 2^17 such inputs took 2.6-3.1 s.
_HULL_LIMIT = 1 << 16


@dataclass(frozen=True)
class ClosureResult:
    """Outcome of the hull computation, with the elements each chain step added."""

    frobenius: int
    input_set: tuple[int, ...]
    is_ar_set: bool
    closure: NumericalSemigroup | None
    stages: tuple[tuple[int, ...], ...]


def ar_closure(X: Iterable[int], frobenius: int) -> ClosureResult:
    """Hull of X among Arf semigroups with the given Frobenius number.

    ``is_ar_set`` is false (with ``closure`` None) when no such semigroup
    contains X: either syntactically (some element is 0, negative, or beyond
    F), because F is a sum of elements of X, or because the multiplicity
    chain reaches F.

    The chain walks T_i as a bitmask over [0, F - r], r = m_0 + ... + m_{i-1}
    the running sum, with everything above counted as a member.  It stops
    when r passes F (nothing is left to add), when r equals F (refused), or
    when T_i is already Arf: the hull is then the sums so far plus r + T_i,
    refused if that holds F.  The naturals (m = 1) are Arf.  The Arf test is
    linear in F, so it runs only at steps 0, 1, 2, 4, 8, ...; a chain that
    turned Arf in between just goes on reading T_i off term by term.

    ``stages`` holds the elements up to F outside <X> that each step added,
    ascending, for the steps that added any: the running sum, or r + T_i at
    the last step.  On an accepted set their union is the hull minus <X>.
    """
    if frobenius < 1:
        raise InvalidFrobeniusError(f"frobenius must be >= 1, got {frobenius}")
    if frobenius > _HULL_LIMIT:
        raise ScaleLimitError(f"hull chain over {frobenius} bits refused (limit {_HULL_LIMIT})")
    xs = tuple(sorted({int(x) for x in X}))
    if any(x < 1 or x > frobenius for x in xs):
        return ClosureResult(frobenius, xs, False, None, ())
    F = frobenius
    base = _closure_mask(xs, F)
    if (base >> F) & 1:
        return ClosureResult(F, xs, False, None, ())
    sums: list[int] = []  # the running sums m_0 + ... + m_i up to F
    T, limit, m, run, step, rest = base, (1 << (F + 1)) - 1, F + 1, 0, 0, 0
    while run < F:
        c = F - run  # T is T_step over [0, c], and limit has bits 0..c
        low = T & ((2 << m) - 1) & ~1  # m(T_{i+1}) <= m_i: m_i = 2m_i - m_i is in T_{i+1}
        m = (low & -low).bit_length() - 1 if low else c + 1
        if m == 1 or (step & (step - 1) == 0 and _is_arf(T, c)):  # steps 0, 1, 2, 4, 8, ...
            rest = T << run  # Arf(T) = T: the rest of the hull
            break
        run += m
        if run > F:
            break
        sums.append(run)
        limit >>= m
        T = _generated(T >> m, T & limit, limit)
        step += 1
    chain = sum(1 << s for s in sums)  # a shift per sum, a few per cent of a long chain
    stages = [(s,) for s in _iter_bits(chain & ~base)]
    last = rest & ~(base | chain)
    if last:
        stages.append(tuple(_iter_bits(last)))
    hull = base | chain | rest
    if (hull >> F) & 1:
        return ClosureResult(F, xs, False, None, tuple(stages))
    return ClosureResult(F, xs, True, _closed(F, hull | (1 << (F + 1))), tuple(stages))


def _generated(A: int, closed: int, limit: int) -> int:
    """<A> within the bits of ``limit``, for a mask A holding the closed mask ``closed``.

    Each round adjoins the least element of A not yet reached as a
    generator, starting from ``closed``.
    """
    reach = closed
    missing = A & ~reach
    while missing:
        reach = _add_multiples(reach, (missing & -missing).bit_length() - 1, limit)
        missing = A & ~reach
    return reach


def _is_arf(T: int, c: int) -> bool:
    """Is the semigroup with mask T over [0, c], and everything above c, Arf?"""
    gaps = ~T & ((1 << (c + 1)) - 1)
    if not gaps:
        return True  # the naturals
    f = gaps.bit_length() - 1
    elems = list(_iter_bits(T & ((1 << f) - 1)))
    elems.append(f + 1)  # the members up to f+1; the sequence reads their differences top down
    return validate_sequence([v - u for u, v in zip(elems[-2::-1], elems[:0:-1])])


def minimal_ar_generators(S: NumericalSemigroup) -> tuple[int, ...]:
    """The unique minimal X whose hull is S.

    A minimal generator x below F belongs to X exactly when S without x is
    still an Arf semigroup (its Frobenius number is unchanged by removing
    x < F).  On members, the sequence axioms say that S is Arf iff 2v - u is
    a member for any two consecutive members u < v up to F+1.  Removing x
    joins its neighbours u < x < v into one pair, whose 2v - u is a member
    above x since S is Arf, and drops x.  So S without x is Arf iff x is no
    2v - u of S: one pass over the members.  Raises ``NotInCovarietyError``
    for non-Arf input.
    """
    _require_member_ar(S)
    elems = S.small_elements() + (S.frobenius + 1,)
    mirrors = {2 * v - u for u, v in zip(elems, elems[1:])}
    return tuple(x for x in S.minimal_generators() if x < S.frobenius and x not in mirrors)


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
