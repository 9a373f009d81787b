"""The hull of a set read straight off the Arf condition: the tests' reference route.

The package computes hulls through Lipman's multiplicity chain, which reads
the hull's members off from the bottom up.  Here the hull is the fixpoint of
the Arf condition itself: start from the additive closure of X (everything
above F is a member anyway) and add x + y - z for members x >= y >= z, all
pairs at once per round, until nothing below F+1 changes.  X has no hull
precisely when F shows up.  Nothing in the package uses this, so a fault in
the chain shows up as a disagreement with it.
"""

from arfsemigroups.core import _closure_mask, _iter_bits


def pair_fixpoint(xs, F):
    """(is_ar_set, mask over [0, F] of the fixpoint, added elements per round).

    ``xs`` are positive integers at most F.  On a refused set the mask is
    the one in which F first showed up.
    """
    low = (1 << (F + 1)) - 1
    cur = _closure_mask(xs, F)
    stages = []
    while not (cur >> F) & 1:
        new = cur
        for y in _iter_bits(cur & ~1):
            at_least_y = cur >> y << y
            for z in _iter_bits(cur & ((1 << (y + 1)) - 1)):
                new |= (at_least_y << (y - z)) & low
        if new == cur:
            return True, cur, tuple(stages)
        stages.append(tuple(_iter_bits(new & ~cur)))
        cur = new
    return False, cur, tuple(stages)
