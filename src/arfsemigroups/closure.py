"""Smallest Arf semigroup with a fixed Frobenius number containing a given set.

A finite set X of positive integers at most F admits such a hull exactly when some Arf semigroup
with Frobenius number F contains X; the hull is then the intersection of all of them.  Every such
semigroup contains T_0, the additive closure <X> together with everything above F, so the hull is
the Arf closure of T_0, provided F is not in it.  That closure is read off Lipman's multiplicity
chain (J. Lipman, "Stable ideals and Arf rings", 1971; Rosales, Garcia-Sanchez, Garcia-Garcia and
Branco, "Arf numerical semigroups", 2004): Arf(T) is 0 together with m + Arf(<T - m>), where
m = m(T) is the multiplicity and T - m holds the t - m for the positive members t.  So with
m_i = m(T_i) and T_{i+1} = <T_i - m_i>, the hull's members are 0, m_0, m_0 + m_1, ...: its
difference sequence, read from the bottom up.  X has no hull precisely when F is one of these
running sums.  The chain runs on generator sets: if T_i = <G> with everything above c, then
T_{i+1} = <m_i, g - m_i for g in G> with everything above c - m_i, as every t - m_i is one g - m_i
plus generators.

The module also computes the minimal generating data of a member S relative
to this hull operator: the unique minimal set X with hull X = S, its size
(the rank), and the classification and count of the rank-one members.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import accumulate
from operator import add

from .core import (
    NumericalSemigroup,
    _Value,
    _apery_mask,
    _axioms_hold,
    _check_frobenius,
    _closed,
    _closure_mask,
    _difference_sequence,
    _integer,
    _iter_bits,
    _not_member_ar,
)
from .errors import ScaleLimitError

# Budget: every accepted F finishes within 2 s.  A round of the chain costs O(|G|) integer operations,
# so the cost left is <X> over F bits.  At 2^16 in a fresh process (CPython 3.11, shared 2-core Xeon),
# [5, 52272, 52273, 52279, 52283, 52284] and [3, F - 2] take 0.10-0.13 s, and the 16,384 odd numbers
# from 32,769 up at F = 2^16 - 1, a 96 KiB argument, 0.35-0.55 s; in process, X = 32,768..65,535 takes
# 0.56-0.83 s, nearly all of it <X>.  A higher limit waits for budgets set from time and memory.
_HULL_LIMIT = 1 << 16


class ClosureResult(_Value):
    """Outcome of the hull computation, with the elements each chain step added."""

    __match_args__ = ("frobenius", "input_set", "is_ar_set", "closure", "stages")

    def __init__(self, frobenius: int, input_set: tuple[int, ...], is_ar_set: bool, closure: NumericalSemigroup | None,
                 stages: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "frobenius", frobenius)
        object.__setattr__(self, "input_set", input_set)
        object.__setattr__(self, "is_ar_set", is_ar_set)
        object.__setattr__(self, "closure", closure)
        object.__setattr__(self, "stages", stages)


def ar_closure(X: Iterable[int], frobenius: int) -> ClosureResult:
    """Hull of X among Arf semigroups with the given Frobenius number.

    ``is_ar_set`` is false (with ``closure`` None) when no such semigroup
    contains X: either syntactically (some element is 0, negative, or beyond
    F), because F is a sum of elements of X, or because the multiplicity
    chain reaches F.

    The chain holds T_i as a generator set G, every generator at most c = F - r, r = m_0 + ... +
    m_{i-1} the running sum, with everything above c a member.  Each round drops the generators
    above c and takes m = min(G) (c + 1 when none is left); a generator is redundant unless it is
    the least of its residue class mod m other than 0.  With g the least generator kept, the next
    k = g // m multiplicities are all m (c // m + 1 of them, to past F, when none is kept), so one
    round adds those k running sums up to F and leaves G = {m} and the g - k m.  m falls from round
    to round, and the chain stops once r reaches F.

    ``stages`` holds one ``(s,)`` per running sum s up to F outside <X>,
    ascending: on an accepted set their union is the hull minus <X>.
    """
    _check_frobenius(frobenius)
    if frobenius > _HULL_LIMIT:
        raise ScaleLimitError(f"hull chain over {frobenius} bits refused (limit {_HULL_LIMIT})")
    xs = tuple(sorted(set(map(_integer, X))))
    if any(x < 1 or x > frobenius for x in xs):
        return ClosureResult(frobenius, xs, False, None, ())
    F = frobenius
    base = _closure_mask(sum(1 << x for x in xs), (1 << (F + 1)) - 1)
    if (base >> F) & 1:
        return ClosureResult(F, xs, False, None, ())
    digits = bytearray(b"1" + b"0" * F)  # digit s is 1 for 0 and each running sum s up to F
    gens, run = xs, 0
    while run < F:
        c = F - run
        gens = [g for g in gens if g <= c]
        m = min(gens, default=c + 1)
        kept = {g % m: g for g in sorted(gens, reverse=True) if g % m}  # the least of each class
        k = min(kept.values()) // m if kept else c // m + 1
        n = min(k, c // m)  # the sums run + m, ..., run + k m that are at most F
        digits[run + m : run + n * m + 1 : m] = b"1" * n
        run += k * m
        gens = [m, *(g - k * m for g in kept.values())]
    hull = int(digits[::-1], 2)
    stages = tuple((s,) for s in _iter_bits(hull & ~base))
    if (hull >> F) & 1:
        return ClosureResult(F, xs, False, None, stages)
    return ClosureResult(F, xs, True, _closed(F, hull | (1 << (F + 1))), stages)


def minimal_ar_generators(S: NumericalSemigroup) -> tuple[int, ...]:
    """The unique minimal X whose hull is S.

    Raises ``NotInCovarietyError`` unless S's difference sequence keeps the
    sequence axioms (``core._axioms_hold``): that refuses every non-Arf S and
    the naturals, whose sequence is empty.  A minimal generator x below F
    belongs to X exactly when S without x is still an Arf semigroup (its
    Frobenius number is unchanged by removing x < F).  On members, the
    axioms say that S is Arf iff 2v - u is a member for any two consecutive
    members u < v up to F+1.  Removing x joins its neighbours u < x < v into
    one pair, whose 2v - u is a member above x since S is Arf, and drops x.
    So S without x is Arf iff x is no 2v - u of S.  An Arf S is MED, so its
    minimal generators are m and the nonzero Apery elements modulo m: one
    shift of the mask.
    """
    F, mask = S.frobenius, S.mask
    seq = _difference_sequence(mask)
    if not _axioms_hold(seq):
        raise _not_member_ar(S)
    terms = seq[::-1]  # bottom up: m first
    mirrors = set(map(add, accumulate(terms), terms))  # v + (v - u) for consecutive u < v
    m = terms[0]
    gens = (_apery_mask(F, mask, m) | 1 << m) & ((1 << F) - 2)  # the minimal generators below F
    return tuple(x for x in _iter_bits(gens) if x not in mirrors)


def rank_one_catalog(frobenius: int) -> list[NumericalSemigroup]:
    """All rank-one members: multiples of m up to F plus everything past F,
    for each m with 2 <= m < F not dividing F.  Ascending in m."""
    _check_frobenius(frobenius, least=2)
    top = 1 << (frobenius + 1)  # the multiples of m up to F miss F and are closed
    return [_closed(frobenius, _closure_mask(1 << m, top - 1) | top) for m in range(2, frobenius) if frobenius % m]


def _divisor_count(n: int) -> int:
    """Number of divisors of n >= 1: the product of e + 1 over the prime powers p^e that
    exactly divide n, found by trial division while p^2 is at most what is left of n."""
    twos = (n & -n).bit_length() - 1
    n >>= twos
    count, p = twos + 1, 3
    while p * p <= n:
        if n % p == 0:
            e = 1
            n //= p
            while n % p == 0:
                n //= p
                e += 1
            count *= e + 1
        p += 2
    return count * 2 if n > 1 else count  # what is left is 1 or a prime


def count_rank_one(frobenius: int) -> int:
    """Size of the rank-one catalog without building it: F minus the number
    of divisors of F, counted from the factorisation of F."""
    _check_frobenius(frobenius, least=2)
    return frobenius - _divisor_count(frobenius)
