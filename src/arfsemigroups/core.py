"""Canonical numerical semigroups and single-semigroup computations.

A numerical semigroup is stored as its Frobenius number together with a
membership bitmask over ``[0, frobenius + 1]``; every integer above the
Frobenius number is implicitly a member.  The full set of naturals is the
special value ``frobenius == -1`` with mask ``1``.

Invariants are whole-mask operations.  The minimal generators and the
pseudo-Frobenius numbers are read off the Apery set modulo the multiplicity
m, whose m elements are the members s <= F+m with s - m a gap (Rosales and
Garcia-Sanchez, *Numerical Semigroups*, 2009, ch. 1-2): a mask of m bits
shifted at most m - 1 times, however many members S has.  The difference
sequence is read off the runs of zeros in the mask's binary digits.

The family Ar(F) of Arf semigroups with Frobenius number F has its helpers
here too, shared by ``tree``, ``sequences``, ``closure`` and ``cli``: the one
refusal of a semigroup outside the family (``_arf_terms``), the one limit on F
that every walk of the family checks (``_check_tree_frobenius``), the sort key
of the family's canonical order (``_canonical_key``), and the pruned walk
that yields its inclusion-maximal members (``_refinement_free_masks``).

All values are immutable and hashable, so they can be shared freely across
threads.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from itertools import compress

from .errors import (
    EmptyInputError,
    InvalidFrobeniusError,
    NoGapsError,
    NotAMemberError,
    NotCofiniteError,
    NotInCovarietyError,
    ScaleLimitError,
)

# from_generators sieves membership up to min(gens) * max(gens).  Budget: every accepted
# input runs `arfsg check --format json` within 2 s.  The worst, 361,363, took 0.15-0.19 s in a
# fresh process (511,513 at 2^18: 0.22-0.26 s, 1447,1449 at 2^21: 1.1-1.3 s and 112 MB; CPython
# 3.11, shared 2-core Xeon).  The invariants take m shifts of the Apery mask, so the cost grows
# about linearly in the bound.
_SIEVE_LIMIT = 1 << 17

# The tree on Ar(F) roughly doubles each time F grows by 20, odd F having up to 1.7 times the
# nodes of their neighbours, and the root alone has about F/2 children of 2F bits each, so only
# a limit on F, checked before the walk, refuses in time.  The pruned walk of the refinement-free
# sequences (`_refinement_free_masks`, below) and the full one (`arf_sequences_with_total`, total
# F+1) take the same limit, so one check and one message serve all three; at F = 89 the pruned
# walk takes 3.5 ms in process, and `enumerate 89 --maximal-only` 0.08-0.12 s and at most 17.0 MB
# in every format (fresh process, mostly the import).  Budget: every accepted F finishes within
# 2 s.  The slowest tree, F = 89 (17,538 nodes), took 0.15-0.30 s and at most 35 MB (tree json)
# in every format of `arfsg enumerate` and `tree`, the walk 13 ms of it (fresh process, best and
# worst of 3, CPython 3.11, shared 2-core Xeon, where bursts of load have stretched single runs
# to 1.5 s); as json, F = 99 (26,734 nodes) took 0.23 s and 46 MB, and F = 111 0.35-0.38 s and
# 73 MB.
_TREE_LIMIT = 90


# A mask with at least one set bit in _DENSE is read by one C-level selection over all of its
# bits; a sparser one by str.find, which skips each run of zeros at C speed but pays a Python step
# per set bit.  Listing the positions of random masks of 64 to 2^16 bits, the two forms broke even
# at one set bit in 8 to 10 (CPython 3.11, shared 2-core Xeon); at one in 32 the selection took
# about 3 times as long, and on 2^16 bits with three set 1.8 ms against 0.12 ms for the scan.
_DENSE = 8
_BYTE_OF_DIGIT = bytes.maketrans(b"01", b"\0\1")


def _selector(mask: int) -> bytes | None:
    """The bits of a nonnegative mask as 0/1 bytes, least significant first, for
    ``itertools.compress``; None when fewer than one bit in ``_DENSE`` is set."""
    if mask.bit_count() * _DENSE < mask.bit_length():
        return None
    return bin(mask)[:1:-1].encode().translate(_BYTE_OF_DIGIT)  # without "0b"


def _scan_bits(mask: int) -> Iterator[int]:
    digits = bin(mask)[:1:-1]  # least significant digit first, without "0b"
    i = digits.find("1")
    while i >= 0:
        yield i
        i = digits.find("1", i + 1)


def _iter_bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of a nonnegative mask, ascending, in one linear pass."""
    selector = _selector(mask)
    if selector is None:
        return _scan_bits(mask)
    return compress(range(len(selector)), selector)


def _difference_sequence(mask: int) -> tuple[int, ...]:
    """Consecutive differences, top down, of the members of a mask with bit 0 set.

    Each difference is a run of zeros in ``bin(mask)`` together with the 1
    that ends it, read from the top member down.
    """
    return tuple(map(len, bin(mask)[3:].replace("1", "1 ").split()))


def _axioms_hold(xs: tuple[int, ...]) -> bool:
    """Both sequence axioms (see ``sequences``) on a tuple of ints, with no conversion.

    Only x_1 >= 2 and axiom 2 are tested: once x_1..x_i are nondecreasing from
    2, all positive, a consecutive suffix sum of them, or anything above their
    total, is at least x_i, so axiom 2 keeps x_{i+1} >= x_i.  The empty tuple,
    the naturals' difference sequence, fails.
    """
    if not xs or xs[0] < 2:
        return False
    # axiom 2 on prefix sums P_i = x_1 + ... + x_i: x_{i+1} is a consecutive
    # suffix sum P_i - P_j of its predecessors iff P_i - x_{i+1} is a P_j, j < i
    total, earlier = xs[0], {0}
    for x in xs[1:]:
        if x <= total and total - x not in earlier:
            return False
        earlier.add(total)
        total += x
    return True


def _apery_mask(F: int, mask: int, n: int) -> int:
    """The Apery set modulo a nonzero member n of the semigroup (F, mask), as a mask.

    Its n elements, 0 included, are the members s with s - n a gap; none
    exceeds F+n, as s - n would then exceed F.  The naturals (F = -1) have
    0, ..., n-1.
    """
    ext = mask ^ ((1 << (F + n + 1)) - (1 << (F + 2)))  # every member up to F+n
    return ext & ~(ext << n)


def _multiplicity(mask: int) -> int:
    """The least positive member of a mask with a positive bit set."""
    low = mask & ~1
    return (low & -low).bit_length() - 1


def _med_generator_mask(F: int, mask: int) -> int:
    """The minimal generators of the MED semigroup (F, mask), F >= 1, as a mask.

    Every Arf semigroup is MED: it has m minimal generators, its multiplicity
    m and the nonzero elements of the Apery set modulo m, with no sums to
    remove.  For any other semigroup the mask holds more than its generators.
    """
    m = _multiplicity(mask)
    return (_apery_mask(F, mask, m) & ~1) | (1 << m)


def _closure_mask(A: int, limit: int) -> int:
    """<A>, the sums of elements of the mask A, within ``limit``, a mask of bits 0..k.

    Bits of A above k are ignored.  Each round adjoins the least element g of A not yet reached,
    shifting by g, 2g, 4g, ... until a shift adds nothing: that covers every multiple of g and
    keeps the mask closed under every step it was closed under.
    """
    A &= limit
    reach, missing = 1, A & ~1
    while missing:
        step = (missing & -missing).bit_length() - 1
        while True:
            grown = reach | ((reach << step) & limit)
            if grown == reach:
                break
            reach = grown
            step *= 2
        missing = A & ~reach
    return reach


def _mask_of(points: Iterable[int], width: int) -> int:
    """The mask with a bit at each of ``points``, every one in 0..width-1 (unchecked): one byte per
    8 positions, read as one int, so linear in the points plus the width."""
    bits = bytearray((width + 7) >> 3)
    for p in points:
        bits[p >> 3] |= 1 << (p & 7)
    return int.from_bytes(bits, "little")


def _integer(x: object) -> int:
    """An element of an input list as an int: integer strings and integral numbers as ``int()`` reads
    them, and ``ValueError`` for a fractional part (2.5, Fraction(5, 2)), which it would truncate."""
    n = x if type(x) is int else int(x)
    if n is x or n == x or isinstance(x, (str, bytes)):
        return n
    raise ValueError(f"{x!r} is not an integer")


def _check_frobenius(frobenius: int, least: int = 1) -> None:
    """Refuse a Frobenius number below ``least`` with ``InvalidFrobeniusError``."""
    if frobenius < least:
        raise InvalidFrobeniusError(f"frobenius must be >= {least}, got {frobenius}")


def _check_tree_frobenius(frobenius: int) -> None:
    """Refuse, before any walk, a Frobenius number whose tree on Ar(F) is not walked:
    F < 1 (``InvalidFrobeniusError``) or F above ``_TREE_LIMIT`` (``ScaleLimitError``)."""
    _check_frobenius(frobenius)
    if frobenius > _TREE_LIMIT:
        raise ScaleLimitError(f"tree walk for Frobenius number {frobenius} refused (limit {_TREE_LIMIT})")


def _canonical_key(mask: int) -> tuple[int, int]:
    """Sort key of the canonical order on the masks of one Frobenius number: by depth, then
    lexicographically by small elements.

    Masks of one depth hold as many members, so the lowest bit where two of
    them differ decides: the mask that holds it comes first.  The digits
    reversed put that bit highest, all masks of one F having the same width.
    """
    return mask.bit_count(), -int(bin(mask)[:1:-1], 2)


def _refinement_free_masks(frobenius: int) -> list[int]:
    """The masks of the Arf semigroups whose sequences, total F+1, admit no proper
    refinement, in the lexicographic order of the sequences.

    The depth-first walk of ``sequences.arf_sequences_with_total``, pruned.
    The splits of term x_i depend only on x_1..x_i, so a prefix whose last
    term splits never completes to a refinement-free sequence: that term is
    skipped with everything below it.  The walk keeps the members of the
    semigroup from v = total - run up as a mask, with everything past the
    total set, so bit j > 0 of ``up`` says that j is a consecutive suffix sum
    of the prefix or exceeds their total, and bit 0 is v itself.  The next
    term y is valid iff bit y is set (and y <= v / 2 or y = v), and it splits
    as (a, y - a) iff bits a and y - 2a are set, the test of
    ``sequences.iter_refinements``.  So the splitting y are the sumset
    {2a + b : a >= 2 and b set bits of ``up``}, cleared from the valid y in
    one pass over the a, ``up << 2a`` each; a > v / 2 clears only y > v.
    At v = 0 the extended mask cut to bits 0..F+1 is the member's mask.

    Frobenius numbers above ``_TREE_LIMIT`` raise ``ScaleLimitError``
    before the walk starts, as for the whole tree.
    """
    _check_tree_frobenius(frobenius)
    total = frobenius + 1
    low = (1 << (total + 1)) - 1
    out: list[int] = []

    def extend(v: int, ext: int) -> None:
        if not v:
            out.append(ext & low)
            return
        up = ext >> v
        terms = up & ((2 << (v // 2)) - 4 | 1 << v)  # the valid y: 2 <= y <= v / 2, or v; v >= 2
        splits = up & ((2 << (v // 2)) - 4)  # the a in 2..v/2 with bit a set
        while splits:
            bit = splits & -splits
            splits ^= bit
            terms &= ~(up << 2 * (bit.bit_length() - 1))
        while terms:
            bit = terms & -terms
            terms ^= bit
            y = bit.bit_length() - 1
            extend(v - y, ext | 1 << (v - y))

    extend(total, low << total)
    return out


def _closed(frobenius: int, mask: int) -> NumericalSemigroup:
    """A semigroup on a mask that is valid and additively closed by construction, unchecked."""
    S = object.__new__(NumericalSemigroup)
    object.__setattr__(S, "frobenius", frobenius)
    object.__setattr__(S, "mask", mask)
    return S


def _read_off(mask: int, k: int) -> NumericalSemigroup:
    """The semigroup whose members up to k >= 0 are the set bits of ``mask`` (bit 0 set, closed under
    sums up to k) and that holds every integer above k: its Frobenius number is the largest gap up to
    k, and it is the naturals when there is none.  Bits of ``mask`` above k are ignored."""
    F = (~mask & ((2 << k) - 1)).bit_length() - 1
    return _closed(F, mask & ((1 << (F + 1)) - 1) | 1 << (F + 1))


def _arf_terms(S: NumericalSemigroup) -> tuple[int, ...]:
    """S's difference sequence, or ``NotInCovarietyError`` unless it keeps the sequence axioms.

    That refuses every non-Arf S and the naturals, whose sequence is empty.
    The message names S by its Frobenius number and multiplicity, so it stays
    short however large S is.
    """
    xs = _difference_sequence(S.mask)
    if _axioms_hold(xs):
        return xs
    what = "the naturals are" if S.is_natural() else (
        f"the semigroup with Frobenius number {S.frobenius} and multiplicity {S.multiplicity()} is"
    )
    raise NotInCovarietyError(f"{what} not an Arf semigroup with positive Frobenius number")


class _Value:
    """A frozen value whose fields, named in order by the class's ``__match_args__``, are written
    once by ``_setfields`` and read back by ``_astuple``: equal to a value of the same class with
    equal fields, and hashed and shown as the tuple of them."""

    def _setfields(self, *fields: object) -> None:
        for name, value in zip(self.__match_args__, fields, strict=True):
            object.__setattr__(self, name, value)

    def _astuple(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self.__match_args__))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__match_args__, self._astuple()))
        return f"{type(self).__qualname__}({fields})"


class NumericalSemigroup(_Value):
    """An additively closed, cofinite subset of the naturals containing 0.

    Only masks from outside (this constructor, ``from_small_elements``) get
    the full closure check, quadratic in F; derived values are closed by
    construction and skip it.
    """

    __match_args__ = ("frobenius", "mask")

    def __init__(self, frobenius: int, mask: int):
        self._setfields(frobenius, mask)
        F = frobenius
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
        _check_frobenius(frobenius)
        return _closed(frobenius, 1 | (1 << (frobenius + 1)))

    @classmethod
    def from_generators(cls, gens: Iterable[int]) -> NumericalSemigroup:
        """Semigroup of all nonnegative integer combinations of ``gens``.

        Raises ``EmptyInputError`` on an empty collection and
        ``NotCofiniteError`` when gcd(gens) != 1.
        """
        gs = sorted(set(map(_integer, gens)))
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
        return _read_off(_closure_mask(_mask_of(gs, gs[-1] + 1), (2 << bound) - 1), bound)

    @classmethod
    def from_small_elements(cls, frobenius: int, smalls: Iterable[int]) -> NumericalSemigroup:
        """Build from the members below the Frobenius number.

        Elements are read by the element-list rule (``core._integer``), and one outside 0..F+1
        raises ``ValueError``.  The closure check shifts the mask once per small element, so it is
        quadratic in F.  The worst shape, every number above F/2, took 0.26-0.28 s at F = 64,001
        and 1.1-1.4 s at 128,001 (in process, CPython 3.11, shared 2-core Xeon): the 2 s budget
        holds to about F = 128,000, and there is no limit.
        """
        ss = [*map(_integer, smalls)]
        if ss and not 0 <= min(ss) <= max(ss) <= frobenius + 1:
            raise ValueError(f"small elements must lie in 0..{frobenius + 1}, got {min(ss)}..{max(ss)}")
        return cls(frobenius, _mask_of(ss, frobenius + 2) | 1 << (frobenius + 1))

    # -- membership and element views --------------------------------------

    def __contains__(self, x: int) -> bool:
        """Membership of an integer; an integral value such as 7.0 is tested as its int, and a
        number with a fractional part is no member, below F as above it, nor is a str or bytes,
        nor anything else that is no number (None, a list, a complex number)."""
        if type(x) is not int:
            try:
                if isinstance(x, (str, bytes)) or x % 1:  # a str first: "%.0s" % 1 is ""
                    return False
            except TypeError:  # x % 1 is undefined: no number
                return False
            x = int(x)
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
        return 1 if self.is_natural() else _multiplicity(self.mask)

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

        These are m and the nonzero elements of the Apery set modulo m that
        are not a sum of two of them, so only the m bits of the Apery mask
        are shifted.  The naturals have m = 1 and Apery set {0}: just (1,).
        """
        F, mask = self.frobenius, self.mask
        m = self.multiplicity()
        ap = _apery_mask(F, mask, m) & ~1  # the nonzero Apery elements, all above m
        sums = 0
        # the smaller summand of a sum within F+m is at most (F+m)/2
        for a in _iter_bits(ap & ((2 << ((F + m) // 2)) - 1)):
            sums |= ap << a
        return (m,) + tuple(_iter_bits(ap & ~sums))

    # -- Apery sets and gap invariants ---------------------------------------

    def apery_set(self, n: int) -> tuple[int, ...]:
        """Least member of each residue class mod ``n``, by residue (``n`` a nonzero member;
        an integral value such as 7.0 is read as its int, as by ``in``)."""
        if n not in self or n < 1:
            raise NotAMemberError(f"{n!r} is not a nonzero member")
        n = int(n)
        entries = [0] * n
        for s in _iter_bits(_apery_mask(self.frobenius, self.mask, n)):
            entries[s % n] = s
        return tuple(entries)

    def _pseudo_frobenius_mask(self) -> int:
        if self.is_natural():
            raise NoGapsError("the naturals have no pseudo-Frobenius numbers")
        F, m = self.frobenius, self.multiplicity()
        ap = _apery_mask(F, self.mask, m)
        # w is maximal when no w + a is an Apery element for a nonzero one a;
        # w > m and w + a <= F+m leave only a < F to test
        blocked = 0
        for a in _iter_bits(ap & ((1 << F) - 2)):
            blocked |= ap >> a
        return (ap & ~blocked) >> m

    def pseudo_frobenius(self) -> tuple[int, ...]:
        """Gaps z with z + s a member for every positive member s.

        These are w - m for the Apery elements w modulo the multiplicity m
        that are maximal in the order w <= w + s, s a member: at most m - 1
        shifts of the Apery mask.
        """
        return tuple(_iter_bits(self._pseudo_frobenius_mask()))

    def semigroup_type(self) -> int:
        """Number of pseudo-Frobenius numbers."""
        return self._pseudo_frobenius_mask().bit_count()

    def special_gaps(self) -> tuple[int, ...]:
        """Gaps whose adjunction leaves the set additively closed.

        These are the pseudo-Frobenius numbers x with 2x a member; the naturals
        have none and raise ``NoGapsError``.
        """
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

        Decided by running the sequence axioms on the difference sequence of
        the mask; the naturals count as Arf by convention.
        """
        return self.is_natural() or _axioms_hold(_difference_sequence(self.mask))

    def difference_sequence(self) -> tuple[int, ...]:
        """Consecutive differences of the members up to F+1, largest first."""
        if self.is_natural():
            raise NoGapsError("the naturals have no difference sequence")
        return _difference_sequence(self.mask)

    # -- element adjunction/removal -----------------------------------------

    def adjoin(self, x: int) -> NumericalSemigroup:
        """S with the special gap ``x`` added.

        Adjoining the Frobenius number itself shrinks the Frobenius number to
        the next gap down (or yields the naturals).  ``ValueError`` if x is not special.
        An integral value such as 7.0 is read as its int, as by ``in``.
        """
        if x in self or x not in NumericalSemigroup.natural():
            raise NotAMemberError(f"{x!r} is not a gap")
        x, F = int(x), self.frobenius
        mask = self.mask | (1 << x)
        # S is closed, so only a sum x + s with s a positive member can be a gap; none is when x = F
        if ((mask & ~1) << x) & ~mask & ((1 << (F + 1)) - 1):
            raise ValueError(f"not additively closed: {x} plus a member is a gap")
        return _read_off(mask, F)

    def remove(self, x: int) -> NumericalSemigroup:
        """S without the minimal generator ``x`` (requires 0 < x <= F, so F survives);
        ``ValueError`` if x is a sum of two positive members.  An integral value such as 7.0
        is read as its int, as by ``in``."""
        if x not in self or x < 1 or x > self.frobenius:
            raise NotAMemberError(f"{x!r} is not a member in [1, frobenius]")
        x = int(x)
        below = self.mask & ((1 << x) - 1) & ~1  # the positive members below x
        # x = a + (x - a) iff bit a is set in `below` and in its mirror image k -> x - k
        if below & int(f"{below:0{x + 1}b}"[::-1], 2):
            raise ValueError(f"not additively closed: {x} is a sum of two members")
        return _closed(self.frobenius, self.mask & ~(1 << x))

    def remove_multiplicity(self) -> NumericalSemigroup:
        """S without its least positive element (always a minimal generator)."""
        m = self.multiplicity()
        k = max(self.frobenius, m)  # m itself may be the new Frobenius number
        return _read_off(self._extended_mask(k) & ~(1 << m), k)

    # -- set algebra ----------------------------------------------------------

    def _extended_mask(self, frobenius: int) -> int:
        # membership bits over [0, frobenius+1] for frobenius >= self.frobenius
        extra = frobenius - self.frobenius
        return self.mask | (((1 << extra) - 1) << (self.frobenius + 2))

    def intersect(self, other: NumericalSemigroup) -> NumericalSemigroup:
        """Intersection; its Frobenius number is the max of the two."""
        k = max(self.frobenius, other.frobenius, 0)
        return _read_off(self._extended_mask(k) & other._extended_mask(k), k)

    def issubset(self, other: NumericalSemigroup) -> bool:
        k = max(self.frobenius, other.frobenius, 0)
        return self._extended_mask(k) & ~other._extended_mask(k) == 0

    def __repr__(self) -> str:
        if self.is_natural():
            return "NumericalSemigroup.natural()"
        smalls = ", ".join(str(s) for s in self.small_elements())
        return f"NumericalSemigroup(F={self.frobenius}, members={{{smalls}, {self.frobenius + 1}, ->}})"
