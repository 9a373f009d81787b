"""Arf sequences: the difference-sequence view of Arf semigroups.

An Arf semigroup other than the naturals is determined by the sequence of
consecutive differences of its elements up to F+1, read from the top down.
The admissible sequences satisfy two axioms:

1. ``2 <= x_1 <= x_2 <= ... <= x_n``
2. each ``x_{i+1}`` is a consecutive suffix sum ``x_i + x_{i-1} + ... + x_j``
   of its predecessors, or exceeds the sum of all of them.

Only ``x_1 >= 2`` and axiom 2 are tested (``core._axioms_hold``): axiom 1
follows from them, as a consecutive suffix sum of x_1..x_i that are
nondecreasing from 2, or anything above their total, is at least x_i.

Splitting a term ``x_i`` into an adjacent pair ``(a, x_i - a)`` that keeps the
axioms is called a proper refinement; sequences with no proper refinement and
total F+1 correspond exactly to the maximal members of the covariety of Arf
semigroups with Frobenius number F.  Whether a split keeps the axioms is
decided by set lookups on the partial sums of the sequence, not by walking
its prefix.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .core import (
    NumericalSemigroup, _Value, _arf_terms, _axioms_hold, _check_tree_frobenius, _closed, _difference_sequence,
    _integer, _refinement_free_masks,
)
from .errors import EmptyInputError, InvalidSequenceError


def _as_terms(seq: Iterable[int] | "ArfSequence") -> tuple[int, ...]:
    if isinstance(seq, ArfSequence):
        return seq.terms
    xs = tuple(map(_integer, seq))
    if not xs:
        raise EmptyInputError("at least one term is required")
    return xs


def validate_sequence(seq: Iterable[int] | "ArfSequence") -> bool:
    """Check both sequence axioms.  Empty input raises ``EmptyInputError``."""
    return _axioms_hold(_as_terms(seq))


class ArfSequence(_Value):
    """A tuple of integers satisfying both sequence axioms; any iterable of integers is stored as one."""

    __match_args__ = ("terms",)

    def __init__(self, terms: Iterable[int]):
        self._setfields(_as_terms(terms))
        if not validate_sequence(self):
            raise InvalidSequenceError(f"{','.join(map(str, self.terms))} violates the sequence axioms")

    @property
    def total(self) -> int:
        return sum(self.terms)

    def __iter__(self) -> Iterator[int]:
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __getitem__(self, i: int) -> int:
        return self.terms[i]


def _unchecked(terms: tuple[int, ...]) -> ArfSequence:
    """An ``ArfSequence`` on terms that are valid by construction, unvalidated."""
    q = object.__new__(ArfSequence)
    object.__setattr__(q, "terms", terms)
    return q


def _arf(seq: Iterable[int] | ArfSequence) -> ArfSequence:
    return seq if isinstance(seq, ArfSequence) else ArfSequence(seq)


def semigroup_of_sequence(seq: Iterable[int] | ArfSequence) -> NumericalSemigroup:
    """The Arf semigroup {0, x_n, x_n + x_{n-1}, ..., x_n + ... + x_1, ->}.

    The total of the sequence is F+1.  Any other input is built into an
    ``ArfSequence``, which raises ``InvalidSequenceError`` if it is invalid.
    """
    terms = _arf(seq).terms
    digits = bytearray(b"1" + b"0" * sum(terms))  # digit s is 1 for 0 and each partial sum s from the top
    run = 0
    for x in reversed(terms):
        run += x
        digits[run] = 49  # "1"
    return _closed(run - 1, int(digits[::-1], 2))


def sequence_of_semigroup(S: NumericalSemigroup) -> ArfSequence:
    """Inverse of ``semigroup_of_sequence``: the difference sequence of an Arf semigroup.

    A non-Arf S and the naturals raise ``NotInCovarietyError``, as for
    ``minimal_ar_generators`` and ``children`` (``core._arf_terms``).
    """
    return _unchecked(_arf_terms(S))


def iter_refinements(seq: Iterable[int] | ArfSequence) -> Iterator[tuple[int, int, ArfSequence]]:
    """All valid single splits as (position, split value, refined sequence), by position and then
    split value.

    Input other than an ``ArfSequence`` is built into one, which raises
    ``InvalidSequenceError`` before anything is yielded.  A split value above
    x_i / 2 leaves x_i - 2a < 0, which no sequence of positive terms accepts,
    so only a <= x_i / 2 is tried.  The partial sums above each term are
    gathered from the top down, so a search that stops at the first split
    costs no more than the terms it has passed.  A valid split of a valid
    sequence is valid, so the refined sequences are built unchecked.
    """
    xs = _arf(seq).terms
    total = v = sum(xs)
    above: set[int] = set()
    for i, x in enumerate(xs, start=1):
        # The bottom-up partial sums 0, x_n, x_n + x_{n-1}, ..., up to the total,
        # are the members up to F+1 of a valid sequence's semigroup.  Term x_i
        # spans two consecutive ones, u < v, and the consecutive suffix sums of
        # x_{i-1}, ..., x_1 are the differences s - v with s a partial sum above
        # v (``above``).  So t is such a sum, or beyond their total, iff v + t is
        # in ``above`` or past ``total``: the split (a, x - a) needs that for
        # t = a and, unless x = 2a, for t = x - 2a.
        for a in range(2, x // 2 + 1):
            t, w = v + a, v + x - 2 * a
            if (t > total or t in above) and (w == v or w > total or w in above):
                yield i, a, _unchecked(xs[: i - 1] + (a, x - a) + xs[i:])
        above.add(v)
        v -= x


def admits_proper_refinement(seq: Iterable[int] | ArfSequence) -> bool:
    """Whether ``iter_refinements`` yields anything; it refuses what that refuses."""
    return next(iter_refinements(seq), None) is not None


def arf_sequences_with_total(total: int) -> list[ArfSequence]:
    """Every valid sequence summing to ``total``, in lexicographic order.

    The depth-first walk of ``core._refinement_free_masks`` without its split
    test, carrying the prefix.  Bit y > 0 of ``up``, the members from
    v = total - run up, says that y is a suffix sum of the prefix or exceeds
    their total.  Terms never decrease, so y <= v / 2 or y = v: the next
    terms are the set bits of ``up`` in 2..v/2, lowest first, and then v,
    which ends the sequence, when its bit is set.  Every term chosen keeps
    both axioms, so the output is built without re-validation.

    Totals below 2 give no sequence.  Totals above ``_TREE_LIMIT`` + 1 raise
    ``ScaleLimitError`` before the walk starts, as ``maximal_elements`` does.
    """
    if total < 2:
        return []
    _check_tree_frobenius(total - 1)
    out: list[ArfSequence] = []

    def extend(v: int, ext: int, prefix: tuple[int, ...]) -> None:
        up = ext >> v
        terms = up & ((2 << (v // 2)) - 4)
        while terms:
            bit = terms & -terms
            terms ^= bit
            y = bit.bit_length() - 1
            extend(v - y, ext | 1 << (v - y), prefix + (y,))
        if up >> v & 1:
            out.append(_unchecked(prefix + (v,)))

    extend(total, ((2 << total) - 1) << total, ())
    return out


def refinement_free_sequences(frobenius: int) -> list[ArfSequence]:
    """Sequences with total F+1 admitting no proper refinement, lexicographic.

    Each is read off the mask of its semigroup, which the pruned walk
    ``core._refinement_free_masks`` yields.
    """
    return [_unchecked(_difference_sequence(mask)) for mask in _refinement_free_masks(frobenius)]


def maximal_elements(frobenius: int) -> list[NumericalSemigroup]:
    """The inclusion-maximal Arf semigroups with the given Frobenius number.

    These are the semigroups of the refinement-free sequences with total
    F+1, in the same order: lexicographic in the sequences.
    """
    return [_closed(frobenius, mask) for mask in _refinement_free_masks(frobenius)]
