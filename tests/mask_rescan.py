"""Every split of every term, rescanned on a node's whole mask: the tests' reference.

The package finds the maximal members by a pruned walk over difference
sequences, which tests each term once, on the terms before it, and never
reaches the members below a term that splits.  Here every node of the whole
tree is kept and every term of its sequence is tested afresh on its mask, so
a fault in the walk's split test or in its pruning shows up as a
disagreement with this scan.  ``maximal_semigroups`` gives the nodes that the
package's lookup ``CovarietyTree.maximal_indices`` picks, as semigroups, for
the tests that compare the tree's maximal members with other routes.
"""

from arfsemigroups.core import NumericalSemigroup


def mask_splits(F, mask):
    """(v, a) for every valid split (a, v - u - a) of a term of the sequence of the
    member of Ar(F) with mask ``mask``, u < v consecutive members up to F+1, from
    the top term down, a ascending."""
    # bits[j] == "1" iff j is a member; every j past F+1 is one, and no test reads past 2F+2
    bits = format(mask, "b")[::-1] + "1" * (F + 1)
    v = F + 1
    while v:
        u = bits.rfind("1", 0, v)
        for a in range(2, (v - u) // 2 + 1):
            # v + (v - u - 2a) is v itself when a = (v - u) / 2
            if bits[v + a] == "1" == bits[2 * v - u - 2 * a]:
                yield v, a
        v = u


def maximal_by_rescan(tree):
    """Indices of the nodes of ``tree`` whose masks admit no split, in node order."""
    return [i for i, mask in enumerate(tree.masks) if next(mask_splits(tree.frobenius, mask), None) is None]


def maximal_semigroups(tree):
    """The semigroups of the nodes ``tree.maximal_indices()`` names, in node order."""
    return [NumericalSemigroup(tree.frobenius, tree.masks[i]) for i in tree.maximal_indices()]
