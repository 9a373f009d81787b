"""Arf sequences: the difference-sequence view of Arf semigroups.

An Arf semigroup other than the naturals is determined by the sequence of
consecutive differences of its elements up to F+1, read from the top down.
The admissible sequences satisfy two axioms:

1. ``2 <= x_1 <= x_2 <= ... <= x_n``
2. each ``x_{i+1}`` is a consecutive suffix sum ``x_i + x_{i-1} + ... + x_j``
   of its predecessors, or exceeds the sum of all of them.

Splitting a term ``x_i`` into an adjacent pair ``(a, x_i - a)`` that keeps the
axioms is called a proper refinement; sequences with no proper refinement and
total F+1 correspond exactly to the maximal members of the covariety of Arf
semigroups with Frobenius number F.  Whether a split keeps the axioms is
decided by set lookups on the partial sums of the sequence (``_split_ok``),
not by walking its prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .core import NumericalSemigroup, _closed
from .errors import (
    EmptyInputError,
    InvalidFrobeniusError,
    InvalidRefinementError,
    InvalidSequenceError,
    NoGapsError,
    NotArfError,
)


def _as_terms(seq: Iterable[int] | "ArfSequence") -> tuple[int, ...]:
    if isinstance(seq, ArfSequence):
        return seq.terms
    xs = tuple(int(x) for x in seq)
    if not xs:
        raise EmptyInputError("a sequence needs at least one term")
    return xs


def validate_sequence(seq: Iterable[int] | "ArfSequence") -> bool:
    """Check both sequence axioms.  Empty input raises ``EmptyInputError``."""
    xs = _as_terms(seq)
    if xs[0] < 2:
        return False
    if any(b < a for a, b in zip(xs, xs[1:])):
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


@dataclass(frozen=True)
class ArfSequence:
    """A tuple of integers satisfying both sequence axioms."""

    terms: tuple[int, ...]

    def __post_init__(self):
        if not validate_sequence(self.terms):
            raise InvalidSequenceError(f"{self.terms} violates the sequence axioms")

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


def semigroup_of_sequence(seq: Iterable[int] | ArfSequence) -> NumericalSemigroup:
    """The Arf semigroup {0, x_n, x_n + x_{n-1}, ..., x_n + ... + x_1, ->}.

    The total of the sequence is F+1.  Invalid input raises
    ``InvalidSequenceError``; an ``ArfSequence`` was validated when built.
    """
    xs = _as_terms(seq)
    if not isinstance(seq, ArfSequence) and not validate_sequence(xs):
        raise InvalidSequenceError(f"{xs} violates the sequence axioms")
    run, mask = 0, 1
    for x in reversed(xs):
        run += x
        mask |= 1 << run
    return _closed(run - 1, mask)


def sequence_of_semigroup(S: NumericalSemigroup) -> ArfSequence:
    """Inverse of ``semigroup_of_sequence``; requires an Arf semigroup."""
    if S.is_natural():
        raise NoGapsError("the naturals have no associated sequence")
    try:
        return ArfSequence(S.difference_sequence())
    except InvalidSequenceError:
        raise NotArfError(f"{S!r} is not an Arf semigroup") from None


def refinement_candidates(seq: Iterable[int] | ArfSequence, i: int, a: int) -> bool:
    """Closed-form test: does replacing x_i by (a, x_i - a) keep the axioms?

    ``i`` is 1-based.  Only the neighbourhood of the split matters:

    * i = 1: valid iff 2a <= x_1;
    * i >= 2: valid iff ``a`` is a consecutive suffix sum of x_{i-1}, ..., x_1
      (or beyond their total) and x_i - 2a is zero, such a suffix sum, or
      beyond the total.

    Out-of-range ``i`` or ``a`` raises ``InvalidRefinementError``.
    """
    xs = _as_terms(seq)
    if not 1 <= i <= len(xs):
        raise InvalidRefinementError(f"position {i} out of range 1..{len(xs)}")
    if a < 2 or a >= xs[i - 1]:
        raise InvalidRefinementError(f"split value {a} out of range 2..{xs[i - 1] - 1}")
    total = v = sum(xs)
    above: set[int] = set()
    for x in xs[: i - 1]:
        above.add(v)
        v -= x
    return _split_ok(above, total, v, xs[i - 1], a)


def _split_ok(above: set[int], total: int, v: int, x: int, a: int) -> bool:
    """Is (a, x - a) a valid split of the term x whose upper end is v?

    The bottom-up partial sums 0, x_n, x_n + x_{n-1}, ..., up to the total,
    are the members up to F+1 of a valid sequence's semigroup.  Term x_i
    spans two consecutive ones, u < v, and the consecutive suffix sums of
    x_{i-1}, ..., x_1 are the differences s - v with s a partial sum above v
    (``above``).  So t is such a sum, or beyond their total, iff v + t is in
    ``above`` or past ``total``: one set lookup per candidate.
    """
    t, w = v + a, v + x - 2 * a
    return (t > total or t in above) and (w == v or w > total or w in above)


def _valid_splits(xs: tuple[int, ...]) -> Iterator[tuple[int, int]]:
    """(i, a) for every valid split, by position and then split value.

    A split value above x_i / 2 leaves x_i - 2a < 0, which no sequence of
    positive terms accepts, so only a <= x_i / 2 is tried.  The partial sums
    above each term are gathered from the top down, so a search that stops
    at the first split costs no more than the terms it has passed.
    """
    total = v = sum(xs)
    above: set[int] = set()
    for i, x in enumerate(xs, start=1):
        for a in range(2, x // 2 + 1):
            if _split_ok(above, total, v, x, a):
                yield i, a
        above.add(v)
        v -= x


def apply_refinement(seq: Iterable[int] | ArfSequence, i: int, a: int) -> ArfSequence:
    """The refined sequence (x_1, ..., x_{i-1}, a, x_i - a, x_{i+1}, ..., x_n)."""
    xs = _as_terms(seq)
    if not refinement_candidates(xs, i, a):
        raise InvalidRefinementError(f"splitting position {i} of {xs} at {a} breaks the axioms")
    return ArfSequence(xs[: i - 1] + (a, xs[i - 1] - a) + xs[i:])


def iter_refinements(seq: Iterable[int] | ArfSequence) -> Iterator[tuple[int, int, ArfSequence]]:
    """All valid single splits as (position, split value, refined sequence).

    Input that violates the axioms raises ``InvalidSequenceError`` before
    anything is yielded.  A valid split of a valid sequence is valid, so the
    refined sequences are built unchecked.
    """
    xs = _as_terms(seq)
    if not isinstance(seq, ArfSequence) and not validate_sequence(xs):
        raise InvalidSequenceError(f"{xs} violates the sequence axioms")
    for i, a in _valid_splits(xs):
        yield i, a, _unchecked(xs[: i - 1] + (a, xs[i - 1] - a) + xs[i:])


def admits_proper_refinement(seq: Iterable[int] | ArfSequence) -> bool:
    return next(_valid_splits(_as_terms(seq)), None) is not None


def arf_sequences_with_total(total: int) -> list[ArfSequence]:
    """Every valid sequence summing to ``total``, in lexicographic order.

    Depth-first extension: after a prefix with running sum r, the next term y
    is one of the suffix partial sums of the prefix (all at most r) or any
    value above r.  Terms never decrease, so with rest = total - r what
    remains after y is 0 or at least y: y <= rest / 2 or y == rest.  Only
    such y are tried; the branches this prunes hold no valid sequence.  Every
    term chosen keeps both axioms, so the output is built without
    re-validation.
    """
    if total < 2:
        return []
    out: list[ArfSequence] = []
    prefix: list[int] = []

    def extend(run: int) -> None:
        rest = total - run
        if not rest:
            out.append(_unchecked(tuple(prefix)))
            return
        half = rest // 2
        candidates = []
        acc = 0
        for t in reversed(prefix):
            acc += t
            if acc > rest:
                break
            if acc <= half or acc == rest:
                candidates.append(acc)
        candidates.extend(range(max(run + 1, 2), half + 1))
        if rest > run:
            candidates.append(rest)
        for y in candidates:
            prefix.append(y)
            extend(run + y)
            prefix.pop()

    extend(0)
    return out


def refinement_free_sequences(frobenius: int) -> list[ArfSequence]:
    """Sequences with total F+1 admitting no proper refinement, lexicographic."""
    if frobenius < 1:
        raise InvalidFrobeniusError(f"frobenius must be >= 1, got {frobenius}")
    return [q for q in arf_sequences_with_total(frobenius + 1) if not admits_proper_refinement(q)]


def maximal_elements(frobenius: int) -> list[NumericalSemigroup]:
    """The inclusion-maximal Arf semigroups with the given Frobenius number.

    Each refinement-free sequence with total F+1 maps to one maximal member;
    output order follows the lexicographic order of the sequences.
    """
    return [semigroup_of_sequence(q) for q in refinement_free_sequences(frobenius)]
