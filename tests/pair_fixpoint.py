"""The hull of a set read straight off the Arf condition: the tests' reference route.

The package computes hulls through Lipman's multiplicity chain, which reads
the hull's members off from the bottom up.  Here the hull is the fixpoint of
the Arf condition itself: start from X and 0 (everything above F is a member
anyway) and add x + y - z for members x >= y >= z, all pairs at once per
round, until nothing below F+1 changes.  With z = 0 the rule adds every sum
x + y, so no additive closure is taken first.  X has no hull precisely when
F shows up.  ``sums_of`` reads the additive closure <X> off its definition.
Nothing in the package uses these, so a fault in the chain or in the
package's additive closure shows up as a disagreement with them.
"""

from arfsemigroups.core import _iter_bits


def pair_fixpoint(xs, F):
    """(is_ar_set, mask over [0, F] of the fixpoint).

    ``xs`` are positive integers at most F.  The first rounds add the sums
    of elements of ``xs`` too.  On a refused set the mask is the one in
    which F first showed up.
    """
    low = (1 << (F + 1)) - 1
    cur = 1 | sum(1 << x for x in xs)
    while not (cur >> F) & 1:
        new = cur
        for y in _iter_bits(cur & ~1):
            at_least_y = cur >> y << y
            for z in _iter_bits(cur & ((1 << (y + 1)) - 1)):
                new |= (at_least_y << (y - z)) & low
        if new == cur:
            return True, cur
        cur = new
    return False, cur


def sums_of(xs, F):
    """<xs> over [0, F] as a mask, read literally: v is a sum when v - x is one for some x in xs."""
    mask = 1
    for v in range(1, F + 1):
        if any(x <= v and (mask >> (v - x)) & 1 for x in xs):
            mask |= 1 << v
    return mask
