"""Canonical numerical semigroups and single-semigroup computations.

A numerical semigroup is stored as its Frobenius number together with a
membership bitmask over ``[0, frobenius + 1]``; every integer above the
Frobenius number is implicitly a member.  The full set of naturals is the
special value ``frobenius == -1`` with mask ``1``.

All values are immutable and hashable, so they can be shared freely across
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import (
    EmptyInputError,
    InvalidFrobeniusError,
    NoGapsError,
    NotAMemberError,
    NotCofiniteError,
    ScaleLimitError,
)

# from_generators sieves membership up to min(gens) * max(gens).  Budget: every accepted
# input runs `arfsg check --format json` within 2 s.  The worst, 361,363, took 0.9 s (511,513
# at 2^18: 2.6 s; CPython 3.11, shared 2-core Xeon); the cost is quadratic in the bound.
_SIEVE_LIMIT = 1 << 17


def _iter_bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of a nonnegative mask, ascending, in one linear pass."""
    digits = bin(mask)[:1:-1]  # least significant digit first, without "0b"
    i = digits.find("1")
    while i >= 0:
        yield i
        i = digits.find("1", i + 1)


def _add_multiples(reach: int, g: int, limit: int) -> int:
    """``reach`` plus every multiple of g, within the bits of ``limit``.

    Doubling the step covers all multiples.  The result stays closed under
    every step ``reach`` was closed under, so generators can be adjoined one
    at a time.
    """
    step = g
    while True:
        grown = reach | ((reach << step) & limit)
        if grown == reach:
            return reach
        reach = grown
        step *= 2


def _closure_mask(gens: Iterable[int], bound: int) -> int:
    """Bitmask of every sum of the generators that lands in [0, bound]."""
    limit = (1 << (bound + 1)) - 1
    reach = 1
    for g in gens:
        if not (reach >> g) & 1:  # a reached g adds no new sums
            reach = _add_multiples(reach, g, limit)
    return reach


def _closed(frobenius: int, mask: int) -> NumericalSemigroup:
    """A semigroup on a mask that is valid and additively closed by construction, unchecked."""
    S = object.__new__(NumericalSemigroup)
    object.__setattr__(S, "frobenius", frobenius)
    object.__setattr__(S, "mask", mask)
    return S


@dataclass(frozen=True)
class NumericalSemigroup:
    """An additively closed, cofinite subset of the naturals containing 0.

    Only masks from outside (this constructor, ``from_small_elements``) get
    the full closure check, quadratic in F; derived values are closed by
    construction and skip it.
    """

    frobenius: int
    mask: int

    def __post_init__(self):
        F, mask = self.frobenius, self.mask
        if F == -1:
            if mask != 1:
                raise ValueError("the naturals are encoded as frobenius=-1, mask=1")
            return
        if F < 1:
            raise ValueError(f"frobenius must be -1 or >= 1, got {F}")
        top = 1 << (F + 1)
        if not mask & 1 or not mask & top or mask & (1 << F):
            raise ValueError("mask must contain 0 and frobenius+1 but not frobenius")
        if mask >> (F + 2):
            raise ValueError("mask has bits beyond frobenius+1")
        low = top - 1  # bits 0..F: sums above F are implicit members
        for a in _iter_bits(mask & low & ~1):
            missing = (mask << a) & ~mask & low
            if missing:
                b = (missing & -missing).bit_length() - 1
                raise ValueError(f"not additively closed: {a} + {b - a} = {b} is missing")

    # -- constructors ------------------------------------------------------

    @classmethod
    def natural(cls) -> NumericalSemigroup:
        """The full set of nonnegative integers."""
        return _closed(-1, 1)

    @classmethod
    def delta(cls, frobenius: int) -> NumericalSemigroup:
        """{0, F+1, ->}: the smallest semigroup with the given Frobenius number."""
        if frobenius < 1:
            raise InvalidFrobeniusError(f"frobenius must be >= 1, got {frobenius}")
        return _closed(frobenius, 1 | (1 << (frobenius + 1)))

    @classmethod
    def from_generators(cls, gens: Iterable[int]) -> NumericalSemigroup:
        """Semigroup of all nonnegative integer combinations of ``gens``.

        Raises ``EmptyInputError`` on an empty collection and
        ``NotCofiniteError`` when gcd(gens) != 1.
        """
        gs = sorted({int(g) for g in gens})
        if not gs:
            raise EmptyInputError("at least one generator is required")
        if gs[0] < 1:
            raise ValueError(f"generators must be positive: {gs}")
        if math.gcd(*gs) != 1:
            raise NotCofiniteError(f"gcd of {gs} is {math.gcd(*gs)}, complement would be infinite")
        if gs[0] == 1:
            return cls.natural()
        bound = gs[0] * gs[-1]  # exceeds the Frobenius number of <min, max>
        if bound > _SIEVE_LIMIT:
            raise ScaleLimitError(f"membership sieve would need {bound} bits (limit {_SIEVE_LIMIT})")
        reach = _closure_mask(gs, bound)
        gaps = ~reach & ((1 << (bound + 1)) - 1)
        F = gaps.bit_length() - 1
        return _closed(F, reach & ((1 << (F + 2)) - 1))

    @classmethod
    def from_small_elements(cls, frobenius: int, smalls: Iterable[int]) -> NumericalSemigroup:
        """Build from the members below the Frobenius number."""
        mask = 1 << (frobenius + 1)
        for s in smalls:
            mask |= 1 << s
        return cls(frobenius, mask)

    # -- membership and element views --------------------------------------

    def __contains__(self, x: int) -> bool:
        if x < 0:
            return False
        if x > self.frobenius:
            return True
        return bool((self.mask >> x) & 1)

    def is_natural(self) -> bool:
        return self.frobenius == -1

    def small_elements(self) -> tuple[int, ...]:
        """Members strictly below the Frobenius number, ascending (none for the naturals)."""
        return tuple(_iter_bits(self.mask & ~(1 << (self.frobenius + 1))))

    def gaps(self) -> tuple[int, ...]:
        """Nonmembers, ascending (finitely many by cofiniteness)."""
        return tuple(_iter_bits(~self.mask & ((1 << (self.frobenius + 1)) - 1)))

    # -- basic invariants ---------------------------------------------------

    def multiplicity(self) -> int:
        """Least positive member."""
        positive = self.mask & ~1
        if positive:
            return (positive & -positive).bit_length() - 1
        return 1  # the naturals

    def genus(self) -> int:
        """Number of gaps."""
        return self.frobenius + 1 - self.small_count()

    def small_count(self) -> int:
        """Number of members below the Frobenius number."""
        return self.mask.bit_count() - 1

    def embedding_dim(self) -> int:
        return len(self.minimal_generators())

    # -- generators ---------------------------------------------------------

    def minimal_generators(self) -> tuple[int, ...]:
        """The unique minimal system of generators.

        Candidates live in [m, F+m]: anything larger is m plus a member above
        the Frobenius number.
        """
        if self.is_natural():
            return (1,)
        F, m = self.frobenius, self.multiplicity()
        bound = F + m + 1
        ext = self.mask | (((1 << (bound - F - 1)) - 1) << (F + 2))
        positive = ext & ~1
        sums = 0
        # the smaller summand of a sum within F+m is at most (F+m)/2
        for a in _iter_bits(positive & ((2 << ((F + m) // 2)) - 1)):
            sums |= positive << a
        sums &= (1 << (bound + 1)) - 1
        return tuple(_iter_bits(positive & ~sums & ((1 << (F + m + 1)) - 1)))

    # -- Apery sets and gap invariants ---------------------------------------

    def apery_set(self, n: int) -> tuple[int, ...]:
        """Least member of each residue class mod ``n``, by residue (``n`` a nonzero member)."""
        if n < 1 or n not in self:
            raise NotAMemberError(f"{n} is not a nonzero member")
        entries: list[int | None] = [None] * n
        found, s = 0, 0
        while found < n:  # every residue is hit by s = F + n at the latest
            if entries[s % n] is None and s in self:
                entries[s % n] = s
                found += 1
            s += 1
        return tuple(entries)  # type: ignore[arg-type]

    def _pseudo_frobenius_mask(self) -> int:
        if self.is_natural():
            raise NoGapsError("the naturals have no pseudo-Frobenius numbers")
        # a gap x is pseudo-Frobenius iff no x + s is a gap for a positive
        # member s <= F (sums with larger s exceed F and are members anyway)
        low = (1 << (self.frobenius + 1)) - 1
        gaps = ~self.mask & low
        blocked = 0
        for s in _iter_bits(self.mask & low & ~1):
            blocked |= gaps >> s
        return gaps & ~blocked

    def pseudo_frobenius(self) -> tuple[int, ...]:
        """Gaps z with z + s a member for every positive member s.

        Read off the gap mask G over [0, F]: the bits of G that no shift
        ``G >> s`` by a positive small element s covers.
        """
        return tuple(_iter_bits(self._pseudo_frobenius_mask()))

    def semigroup_type(self) -> int:
        """Number of pseudo-Frobenius numbers."""
        return self._pseudo_frobenius_mask().bit_count()

    def special_gaps(self) -> tuple[int, ...]:
        """Gaps whose adjunction leaves the set additively closed.

        These are the pseudo-Frobenius numbers x with 2x a member.
        """
        if self.is_natural():
            raise NoGapsError("the naturals have no gaps")
        return tuple(x for x in self.pseudo_frobenius() if 2 * x in self)

    # -- structural predicates ----------------------------------------------

    def is_med(self) -> bool:
        """True when the embedding dimension equals the multiplicity.

        The minimal generators lie in {m} and the nonzero Apery elements
        modulo m, m values in all, so equal sizes mean equal sets.
        """
        return self.embedding_dim() == self.multiplicity()

    def is_arf(self) -> bool:
        """True when x + y - z is a member for all members x >= y >= z.

        Decided through the difference sequence of the small elements; the
        naturals count as Arf by convention.
        """
        if self.is_natural():
            return True
        from .sequences import validate_sequence

        return validate_sequence(self.difference_sequence())

    def difference_sequence(self) -> tuple[int, ...]:
        """Consecutive differences of the members up to F+1, largest first."""
        if self.is_natural():
            raise NoGapsError("the naturals have no difference sequence")
        elems = self.small_elements() + (self.frobenius + 1,)
        return tuple(elems[i] - elems[i - 1] for i in range(len(elems) - 1, 0, -1))

    # -- element adjunction/removal -----------------------------------------

    def adjoin(self, x: int) -> NumericalSemigroup:
        """S with the special gap ``x`` added.

        Adjoining the Frobenius number itself shrinks the Frobenius number to
        the next gap down (or yields the naturals).  ``ValueError`` if x is not special.
        """
        if x in self or x < 1:
            raise NotAMemberError(f"{x} is not a gap")
        mask = self.mask | (1 << x)
        if x != self.frobenius:
            # S is closed, so only a sum x + s with s a positive member can be a gap
            if ((mask & ~1) << x) & ~mask & ((1 << (self.frobenius + 1)) - 1):
                raise ValueError(f"not additively closed: {x} plus a member is a gap")
            return _closed(self.frobenius, mask)
        gaps = ~mask & ((1 << (self.frobenius + 2)) - 1)
        if not gaps:
            return NumericalSemigroup.natural()
        F = gaps.bit_length() - 1
        return _closed(F, mask & ((1 << (F + 2)) - 1))

    def remove(self, x: int) -> NumericalSemigroup:
        """S without the minimal generator ``x`` (requires 0 < x <= F, so F survives);
        ``ValueError`` if x is a sum of two positive members."""
        if x < 1 or x > self.frobenius or x not in self:
            raise NotAMemberError(f"{x} is not a member in [1, frobenius]")
        below = self.mask & ((1 << x) - 1) & ~1  # the positive members below x
        # x = a + (x - a) iff bit a is set in `below` and in its mirror image k -> x - k
        if below & int(f"{below:0{x + 1}b}"[::-1], 2):
            raise ValueError(f"not additively closed: {x} is a sum of two members")
        return _closed(self.frobenius, self.mask & ~(1 << x))

    def remove_multiplicity(self) -> NumericalSemigroup:
        """S without its least positive element (always a minimal generator)."""
        if self.is_natural():
            return NumericalSemigroup.delta(1)
        m = self.multiplicity()
        if m == self.frobenius + 1:
            # {0, F+1, ->} loses F+1 and becomes {0, F+2, ->}
            return NumericalSemigroup.delta(self.frobenius + 1)
        return _closed(self.frobenius, self.mask & ~(1 << m))

    # -- set algebra ----------------------------------------------------------

    def _extended_mask(self, frobenius: int) -> int:
        # membership bits over [0, frobenius+1] for frobenius >= self.frobenius
        extra = frobenius - self.frobenius
        return self.mask | (((1 << extra) - 1) << (self.frobenius + 2))

    def intersect(self, other: NumericalSemigroup) -> NumericalSemigroup:
        """Intersection; its Frobenius number is the max of the two."""
        if self.is_natural():
            return other
        if other.is_natural():
            return self
        F = max(self.frobenius, other.frobenius)
        return _closed(F, self._extended_mask(F) & other._extended_mask(F))

    def issubset(self, other: NumericalSemigroup) -> bool:
        if other.is_natural():
            return True
        if self.frobenius < other.frobenius:
            # self contains everything above its own Frobenius number,
            # in particular other's Frobenius number
            return False
        return self.mask & ~other._extended_mask(self.frobenius) == 0

    def __repr__(self) -> str:
        if self.is_natural():
            return "NumericalSemigroup.natural()"
        smalls = ", ".join(str(s) for s in self.small_elements())
        return f"NumericalSemigroup(F={self.frobenius}, members={{{smalls}, {self.frobenius + 1}, ->}})"
