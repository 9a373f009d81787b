"""The public names of the package, frozen."""

import arfsemigroups

PUBLIC = [
    "AperyTable",
    "ArfSequence",
    "ClosureResult",
    "CovarietyTree",
    "EmptyInputError",
    "EnumerationReport",
    "GeneratorSet",
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

# the Apery/MED-adjunction route lives in tests/apery_route.py; its errors are asserts there
REMOVED = [
    "ContradictionError",
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
