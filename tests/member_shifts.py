"""Generators, pseudo-Frobenius numbers and difference sequences by member shifts: the tests' reference.

The package reads these invariants off the Apery mask ``ap`` modulo the
multiplicity m (the members s with s - m a gap), which has only m bits, and
reads the difference sequence off the zero runs of the mask's binary digits.
Here the generators are the positive members up to F+m that no shift of the
members by a small member reaches, the pseudo-Frobenius numbers are the gaps
that no shift of the gap mask by a positive small member covers, and the
difference sequence subtracts consecutive members of the element list.
Nothing in the package uses these, so a fault in the Apery mask or in the
zero runs shows up as a disagreement with them.
"""

from arfsemigroups.core import _iter_bits


def minimal_generators(S):
    """The unique minimal system of generators.

    Candidates live in [m, F+m]: anything larger is m plus a member above
    the Frobenius number.
    """
    if S.is_natural():
        return (1,)
    F, m = S.frobenius, S.multiplicity()
    bound = F + m + 1
    ext = S.mask | (((1 << (bound - F - 1)) - 1) << (F + 2))
    positive = ext & ~1
    sums = 0
    # the smaller summand of a sum within F+m is at most (F+m)/2
    for a in _iter_bits(positive & ((2 << ((F + m) // 2)) - 1)):
        sums |= positive << a
    sums &= (1 << (bound + 1)) - 1
    return tuple(_iter_bits(positive & ~sums & ((1 << (F + m + 1)) - 1)))


def pseudo_frobenius_mask(S):
    """Mask of the pseudo-Frobenius numbers of S, which has gaps."""
    # a gap x is pseudo-Frobenius iff no x + s is a gap for a positive
    # member s <= F (sums with larger s exceed F and are members anyway)
    low = (1 << (S.frobenius + 1)) - 1
    gaps = ~S.mask & low
    blocked = 0
    for s in _iter_bits(S.mask & low & ~1):
        blocked |= gaps >> s
    return gaps & ~blocked


def difference_sequence(S):
    """Consecutive differences of the members up to F+1, largest first."""
    elems = S.small_elements() + (S.frobenius + 1,)
    return tuple(elems[i] - elems[i - 1] for i in range(len(elems) - 1, 0, -1))
