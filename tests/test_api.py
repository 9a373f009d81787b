"""The public names of the package, frozen."""

from dataclasses import fields

import arfsemigroups

PUBLIC = [
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

# the Apery/MED-adjunction route lives in tests/apery_route.py; its errors are asserts there;
# minimal_generators() and apery_set() return plain tuples
REMOVED = [
    "AperyTable",
    "ContradictionError",
    "GeneratorSet",
    "InconsistentTableError",
    "InternalInvariantError",
    "InvalidAdjunctionError",
    "NotMedError",
    "apery_after_adjoin",
    "ar_rank",
    "med_adjunction_test",
    "med_frobenius_genus_formula",
    "msg_after_adjoin",
    "pseudo_frobenius_from_apery",
    "special_gaps_from_apery",
]


def test_all_is_the_frozen_list():
    assert arfsemigroups.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(arfsemigroups, name) is not None


def test_removed_names_are_gone():
    assert [name for name in REMOVED if hasattr(arfsemigroups, name)] == []


def test_results_are_plain_values():
    S = arfsemigroups.NumericalSemigroup.from_generators([5, 7, 9])
    assert type(S.minimal_generators()) is tuple and type(S.apery_set(5)) is tuple
    assert [f.name for f in fields(arfsemigroups.TreeNode)] == ["semigroup", "parent", "depth"]
    assert [f.name for f in fields(arfsemigroups.CovarietyTree)] == ["frobenius", "nodes"]
    assert not hasattr(arfsemigroups.TreeNode, "generators")
    assert not hasattr(arfsemigroups.NumericalSemigroup, "__and__")
