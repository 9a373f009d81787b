"""Arf numerical semigroups with a fixed Frobenius number.

The package enumerates the family of all Arf semigroups sharing a Frobenius
number as a rooted tree, converts semigroups to and from their difference
sequences, computes hulls (smallest Arf member containing a given set),
minimal hull-generating sets and ranks, and ships a deliberately naive
brute-force oracle for cross-checking.
"""

from .closure import (
    ClosureResult,
    ar_closure,
    count_rank_one,
    minimal_ar_generators,
    rank_one_catalog,
)
from .core import NumericalSemigroup
from .errors import (
    EmptyInputError,
    InvalidFrobeniusError,
    InvalidRefinementError,
    InvalidSequenceError,
    NoGapsError,
    NotAMemberError,
    NotArfError,
    NotCofiniteError,
    NotInCovarietyError,
    ScaleLimitError,
    SemigroupError,
)
from .oracle import brute_all_semigroups, brute_is_arf
from .sequences import (
    ArfSequence,
    admits_proper_refinement,
    apply_refinement,
    arf_sequences_with_total,
    iter_refinements,
    maximal_elements,
    refinement_candidates,
    refinement_free_sequences,
    semigroup_of_sequence,
    sequence_of_semigroup,
    validate_sequence,
)
from .tree import (
    CovarietyTree,
    EnumerationReport,
    TreeNode,
    children,
    enumerate_ar,
    is_member_ar,
)

__version__ = "0.1.0"

__all__ = [
    "ArfSequence",
    "ClosureResult",
    "CovarietyTree",
    "EmptyInputError",
    "EnumerationReport",
    "InvalidFrobeniusError",
    "InvalidRefinementError",
    "InvalidSequenceError",
    "NoGapsError",
    "NotAMemberError",
    "NotArfError",
    "NotCofiniteError",
    "NotInCovarietyError",
    "NumericalSemigroup",
    "ScaleLimitError",
    "SemigroupError",
    "TreeNode",
    "admits_proper_refinement",
    "apply_refinement",
    "ar_closure",
    "arf_sequences_with_total",
    "brute_all_semigroups",
    "brute_is_arf",
    "children",
    "count_rank_one",
    "enumerate_ar",
    "is_member_ar",
    "iter_refinements",
    "maximal_elements",
    "minimal_ar_generators",
    "rank_one_catalog",
    "refinement_candidates",
    "refinement_free_sequences",
    "semigroup_of_sequence",
    "sequence_of_semigroup",
    "validate_sequence",
]
