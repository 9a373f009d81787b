"""Rooted-tree enumeration of all Arf semigroups with a fixed Frobenius number.

The family of Arf semigroups with Frobenius number F is closed under
intersection and under removing the multiplicity, and has the minimum
{0, F+1, ->}.  Hanging every member below the one obtained by removing its
multiplicity therefore yields a tree rooted at that minimum, and walking the
tree upwards enumerates the whole family.

The walk runs on difference sequences (see ``sequences``).  A member's
sequence x_1 <= ... <= x_n totals F+1 and ends in its multiplicity, and
removing the multiplicity merges the last two terms.  So the children of a
node are the valid splits (a, x_n - a) of its last term, each adjoining the
element x_n - a, and the inclusion-maximal members are the nodes whose
sequence admits no proper refinement.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import NumericalSemigroup
from .errors import InvalidFrobeniusError, NotInCovarietyError, ScaleLimitError
from .sequences import _split_keeps_axioms, admits_proper_refinement

DEFAULT_MAX_NODES = 10**7


@dataclass(frozen=True)
class TreeNode:
    """One enumerated semigroup and its place in the tree."""

    semigroup: NumericalSemigroup
    parent: int  # index of the parent node, -1 for the root
    depth: int


@dataclass(frozen=True)
class CovarietyTree:
    """The tree of all Arf semigroups with Frobenius number ``frobenius``."""

    frobenius: int
    nodes: tuple[TreeNode, ...]  # the root {0, F+1, ->} comes first

    def __len__(self) -> int:
        return len(self.nodes)

    def semigroups(self) -> list[NumericalSemigroup]:
        return [node.semigroup for node in self.nodes]

    def edges(self) -> list[tuple[int, int]]:
        """(child index, parent index) pairs."""
        return [(i, node.parent) for i, node in enumerate(self.nodes) if node.parent >= 0]

    def depth_counts(self) -> tuple[int, ...]:
        depth = max(node.depth for node in self.nodes)
        counts = [0] * (depth + 1)
        for node in self.nodes:
            counts[node.depth] += 1
        return tuple(counts)

    def maximal_indices(self) -> list[int]:
        """Indices of the inclusion-maximal semigroups, in node order.

        A member is maximal exactly when its difference sequence admits no
        proper refinement.
        """
        return [
            i
            for i, node in enumerate(self.nodes)
            if not admits_proper_refinement(node.semigroup.difference_sequence())
        ]

    def maximal_semigroups(self) -> list[NumericalSemigroup]:
        return [self.nodes[i].semigroup for i in self.maximal_indices()]

    def report(self, wall_seconds: float = 0.0) -> EnumerationReport:
        return EnumerationReport(
            frobenius=self.frobenius,
            node_count=len(self.nodes),
            depth_counts=self.depth_counts(),
            maximal_count=len(self.maximal_indices()),
            wall_seconds=wall_seconds,
        )


@dataclass(frozen=True)
class EnumerationReport:
    frobenius: int
    node_count: int
    depth_counts: tuple[int, ...]
    maximal_count: int
    wall_seconds: float


def is_member_ar(S: NumericalSemigroup, frobenius: int) -> bool:
    """True iff S is an Arf semigroup whose Frobenius number is ``frobenius``."""
    return not S.is_natural() and S.frobenius == frobenius and S.is_arf()


def _splits(xs: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Sequences of the children of xs: its last term m split as (a, m - a),
    ascending in the new multiplicity m - a."""
    n, m = len(xs), xs[-1]
    return [xs[:-1] + (a, m - a) for a in range(m // 2, 1, -1) if _split_keeps_axioms(xs, n, a)]


def children(S: NumericalSemigroup) -> list[NumericalSemigroup]:
    """The children of S in the tree for F = F(S), ascending in multiplicity."""
    if not is_member_ar(S, S.frobenius):
        raise NotInCovarietyError(f"{S!r} is not an Arf semigroup with positive Frobenius number")
    return [S.adjoin(ys[-1]) for ys in _splits(S.difference_sequence())]


def enumerate_ar(
    frobenius: int,
    threads: int = 1,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> CovarietyTree:
    """Breadth-first enumeration of every Arf semigroup with the given Frobenius number.

    Each level is expanded by splitting the last term of every node's
    difference sequence (see the module docstring).  Nodes are emitted in
    canonical order: by depth, then lexicographically by small-element set,
    which within a level is the order of the reversed sequences.

    ``threads`` is validated and accepted for compatibility but has no
    effect: enumeration is serial.  ``max_nodes`` (at least 1) bounds the
    tree size, the root included; ``ScaleLimitError`` is raised beyond it.
    """
    if frobenius < 1:
        raise InvalidFrobeniusError(f"frobenius must be >= 1, got {frobenius}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if max_nodes < 1:
        raise ValueError(f"max_nodes must be >= 1, got {max_nodes}")
    nodes = [TreeNode(NumericalSemigroup.delta(frobenius), -1, 0)]
    level = [(frobenius + 1,)]  # sequences of the last level, which starts at index `first`
    first, depth = 0, 0
    while level:
        merged = [(ys, first + k) for k, xs in enumerate(level) for ys in _splits(xs)]
        merged.sort(key=lambda item: item[0][::-1])
        first, depth, level = len(nodes), depth + 1, []
        for ys, parent in merged:
            if len(nodes) >= max_nodes:
                raise ScaleLimitError(f"enumeration exceeded max_nodes={max_nodes}")
            nodes.append(TreeNode(nodes[parent].semigroup.adjoin(ys[-1]), parent, depth))
            level.append(ys)
    return CovarietyTree(frobenius, tuple(nodes))
