"""Rooted-tree enumeration of all Arf semigroups with a fixed Frobenius number.

The family of Arf semigroups with Frobenius number F is closed under
intersection and under removing the multiplicity, and has the minimum
{0, F+1, ->}.  Hanging every member below the one obtained by removing its
multiplicity therefore yields a tree rooted at that minimum, and walking the
tree upwards enumerates the whole family.

A node is its membership mask and its parent's index.  Its depth, the
number of members it adjoined to the root's 0 and F+1, is its bit count - 2.

The walk follows difference sequences (see ``sequences``).  A member's
sequence x_1 <= ... <= x_n totals F+1 and ends in its multiplicity, and
removing the multiplicity merges the last two terms.  So the children of a
node are the valid splits (a, x_n - a) of its last term, each adjoining the
element x_n - a, and the inclusion-maximal members are the nodes whose
sequence admits no proper refinement: the members that the pruned sequence
walk ``core._refinement_free_masks`` yields.

A child is a bit test on the node's mask.  Consecutive members u < v bound
the term x = v - u, and the consecutive suffix sums of the terms above it are
the s - v for members s > v; everything past F+1 counts as a member.  So the
split (a, x - a) is valid iff v + a and, unless x = 2a, v + x - 2a are
members.  For the last term (u = 0, v = m) with e = m - a the new
multiplicity, that reads: 2m - e and 2e are members.
"""

from __future__ import annotations

from .core import NumericalSemigroup, _Value, _arf_terms, _check_tree_frobenius, _closed, _refinement_free_masks


class CovarietyTree(_Value):
    """The tree of all Arf semigroups with Frobenius number ``frobenius``.

    Node i is the member with membership mask ``masks[i]``, and it hangs
    below node ``parents[i]``.  The root {0, F+1, ->} is node 0, with parent -1.
    """

    __match_args__ = ("frobenius", "masks", "parents")

    def __init__(self, frobenius: int, masks: tuple[int, ...], parents: tuple[int, ...]):
        object.__setattr__(self, "frobenius", frobenius)
        object.__setattr__(self, "masks", masks)
        object.__setattr__(self, "parents", parents)

    def __len__(self) -> int:
        return len(self.masks)

    def semigroups(self) -> list[NumericalSemigroup]:
        return [_closed(self.frobenius, mask) for mask in self.masks]

    def edges(self) -> list[tuple[int, int]]:
        """(child index, parent index) pairs."""
        return list(enumerate(self.parents))[1:]

    def depth_counts(self) -> tuple[int, ...]:
        """Nodes per depth; the last node is on the deepest level."""
        counts = [0] * (self.masks[-1].bit_count() - 1)
        for mask in self.masks:
            counts[mask.bit_count() - 2] += 1
        return tuple(counts)

    def maximal_indices(self) -> list[int]:
        """Indices of the inclusion-maximal semigroups, in node order: the nodes
        whose masks the pruned sequence walk yields."""
        index = {mask: i for i, mask in enumerate(self.masks)}
        return sorted(index[mask] for mask in _refinement_free_masks(self.frobenius))


def is_member_ar(S: NumericalSemigroup, frobenius: int) -> bool:
    """True iff S is an Arf semigroup whose Frobenius number is ``frobenius``."""
    return not S.is_natural() and S.frobenius == frobenius and S.is_arf()


def _level_step(masks: list[int], mults: list[int], first: int) -> list[list[int]]:
    """The parents of the children of the level ``first..``, the tail of ``masks``, bucketed by
    the new multiplicity e: a node of multiplicity m (``mults``) has the e in [m/2, m - 2] with
    2m - e and 2e members.  With j = m - e and w the members from m up, shifted to bit 0, that
    reads: j in 2..m/2 is a set bit of w, and so is m - 2j.  So the loop visits the set bits
    of w in 2..m/2 only.  The last node has the level's largest m, which bounds every e."""
    top = masks[first].bit_length() - 1  # F+1
    fill = ((1 << top) - 1) << (top + 1)  # the members F+2..2F+2, far enough for every bit test
    buckets: list[list[int]] = [[] for _ in range(mults[-1] - 1)]
    for k in range(first, len(masks)):
        m = mults[k]
        w = (masks[k] | fill) >> m
        js = w & ((2 << (m // 2)) - 4)
        while js:
            bit = js & -js
            js ^= bit
            j = bit.bit_length() - 1
            if w >> (m - 2 * j) & 1:
                buckets[m - j].append(k)
    return buckets


def children(S: NumericalSemigroup) -> list[NumericalSemigroup]:
    """The children of S in the tree for F = F(S), ascending in multiplicity; ``NotInCovarietyError``
    for a non-Arf S and for the naturals (``core._arf_terms``)."""
    m = _arf_terms(S)[-1]  # the last term is the multiplicity
    buckets = _level_step([S.mask], [m], 0)
    return [_closed(S.frobenius, S.mask | 1 << e) for e, ks in enumerate(buckets) if ks]


def enumerate_ar(frobenius: int) -> CovarietyTree:
    """Breadth-first enumeration of every Arf semigroup with the given Frobenius number.

    Each level is expanded by bit tests on every node's mask (see the module
    docstring): a child adjoins its new multiplicity e to its parent.  Nodes
    are emitted in canonical order: by depth, then lexicographically by
    small-element set.  A child's small elements are 0, e and then its
    parent's positive ones, and a level's parents are already in that order,
    so each level is bucketed by e: the buckets in ascending e, each holding
    its children in the order of their parents.

    Frobenius numbers above ``_TREE_LIMIT`` raise ``ScaleLimitError`` before
    the walk starts.
    """
    _check_tree_frobenius(frobenius)
    F = frobenius
    masks, parents, mults = [1 | 1 << (F + 1)], [-1], [F + 1]  # the root {0, F+1, ->}
    first = 0
    while first < len(masks):
        buckets = _level_step(masks, mults, first)
        first = len(masks)
        for e, ks in enumerate(buckets):
            if ks:
                masks += [masks[k] | 1 << e for k in ks]
                parents += ks
                mults += [e] * len(ks)
    return CovarietyTree(F, tuple(masks), tuple(parents))
