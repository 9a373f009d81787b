"""The public names of the package, the contract of its value classes and the imports between its modules, frozen."""

import ast
import copy
import pickle
from pathlib import Path

import pytest

import arfsemigroups
from arfsemigroups import (
    ArfSequence,
    ClosureResult,
    CovarietyTree,
    InvalidSequenceError,
    NumericalSemigroup,
    ar_closure,
)
from arfsemigroups.cli import _parser
from cli_runner import leaf_commands

PUBLIC = [
    "ArfSequence",
    "ClosureResult",
    "CovarietyTree",
    "EmptyInputError",
    "InvalidFrobeniusError",
    "InvalidSequenceError",
    "NoGapsError",
    "NotAMemberError",
    "NotCofiniteError",
    "NotInCovarietyError",
    "NumericalSemigroup",
    "ScaleLimitError",
    "SemigroupError",
    "admits_proper_refinement",
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
    "refinement_free_sequences",
    "semigroup_of_sequence",
    "sequence_of_semigroup",
    "validate_sequence",
]

# the public surface of NumericalSemigroup: its fields and its public methods and constructors;
# the unchecked constructor for values closed by construction is the private core._closed
SEMIGROUP_FIELDS = ["frobenius", "mask"]
SEMIGROUP_PUBLIC = [
    "adjoin",
    "apery_set",
    "delta",
    "difference_sequence",
    "embedding_dim",
    "from_generators",
    "from_small_elements",
    "gaps",
    "genus",
    "intersect",
    "is_arf",
    "is_med",
    "is_natural",
    "issubset",
    "minimal_generators",
    "multiplicity",
    "natural",
    "pseudo_frobenius",
    "remove",
    "remove_multiplicity",
    "semigroup_type",
    "small_count",
    "small_elements",
    "special_gaps",
]

# every arfsg command with its parameters: arguments by name, options by their flags
CLI = {
    "check": ["GENERATORS", "--format"],
    "closure": ["FROBENIUS", "--set", "--format"],
    "enumerate": ["FROBENIUS", "--format", "--stats", "--maximal-only"],
    "minimal-gens": ["GENERATORS", "--format"],
    "rank-one": ["FROBENIUS", "--count", "--format"],
    "seq refinements": ["TERMS", "--format"],
    "seq semigroup": ["TERMS", "--format"],
    "seq validate": ["TERMS", "--format"],
    "tree": ["FROBENIUS", "--format"],
}

# the Apery/MED-adjunction route lives in tests/apery_route.py; its errors are asserts there;
# minimal_generators() and apery_set() return plain tuples; single splits come from iter_refinements;
# a tree node is its mask and parent index in CovarietyTree, with no TreeNode object
# a non-Arf semigroup is refused by NotInCovarietyError alone, with no NotArfError
REMOVED = [
    "AperyTable",
    "ContradictionError",
    "EnumerationReport",
    "GeneratorSet",
    "InconsistentTableError",
    "InternalInvariantError",
    "InvalidAdjunctionError",
    "InvalidRefinementError",
    "NotArfError",
    "NotMedError",
    "TreeNode",
    "apery_after_adjoin",
    "apply_refinement",
    "ar_rank",
    "med_adjunction_test",
    "med_frobenius_genus_formula",
    "msg_after_adjoin",
    "pseudo_frobenius_from_apery",
    "refinement_candidates",
    "special_gaps_from_apery",
]

# the package modules each of these may import; every other module may import any of them
LOWER_LAYERS = {
    "errors": set(),
    "core": {"errors"},
    "sequences": {"core", "errors"},
    "tree": {"core", "errors"},
    "closure": {"core", "errors"},
    "oracle": {"core", "errors"},
}


def package_imports(path):
    """(package module, names taken from it) for every import in a source file, at any depth."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "arfsemigroups" and len(parts) > 1:
                    yield parts[1], ()
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] == "arfsemigroups":
                parts = parts[1:]
            elif node.level == 0:
                continue
            if parts and parts[0]:
                yield parts[0], tuple(alias.name for alias in node.names)
            else:  # from . import serialize
                yield from ((alias.name, ()) for alias in node.names)


def test_all_is_the_frozen_list():
    assert arfsemigroups.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(arfsemigroups, name) is not None


def test_removed_names_are_gone():
    assert [name for name in REMOVED if hasattr(arfsemigroups, name)] == []


def test_results_are_plain_values():
    S = arfsemigroups.NumericalSemigroup.from_generators([5, 7, 9])
    assert type(S.minimal_generators()) is tuple and type(S.apery_set(5)) is tuple
    assert arfsemigroups.CovarietyTree.__match_args__ == ("frobenius", "masks", "parents")
    tree = arfsemigroups.enumerate_ar(5)
    assert type(tree.masks) is tuple and type(tree.parents) is tuple
    assert not hasattr(arfsemigroups.NumericalSemigroup, "__and__")


def test_semigroup_surface_is_frozen():
    assert list(NumericalSemigroup.__match_args__) == SEMIGROUP_FIELDS
    assert [name for name in dir(NumericalSemigroup) if not name.startswith("_")] == SEMIGROUP_PUBLIC
    S = NumericalSemigroup.from_generators([5, 7, 9])
    public = sorted(SEMIGROUP_FIELDS + SEMIGROUP_PUBLIC)
    assert [name for name in dir(S) if not name.startswith("_")] == public


# each value class by its repr; its fields are named by __match_args__, in order
VALUES = {
    "ArfSequence(terms=(2, 2, 4))": lambda: ArfSequence((2, 2, 4)),
    "CovarietyTree(frobenius=3, masks=(17, 21), parents=(-1, 0))": lambda: CovarietyTree(3, (17, 21), (-1, 0)),
    "ClosureResult(frobenius=29, input_set=(6, 8), is_ar_set=True, closure=NumericalSemigroup(F=29, members="
    "{0, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30, ->}), stages=(range(6, 7, 6), range(8, 29, 2)))":
    lambda: ar_closure([6, 8], 29),
    "NumericalSemigroup.natural()": NumericalSemigroup.natural,
}


@pytest.mark.parametrize("text", VALUES)
def test_values_are_frozen_and_compare_by_their_fields(text):
    value = VALUES[text]()
    cls = type(value)
    assert repr(value) == text
    fields = tuple(getattr(value, name) for name in cls.__match_args__)
    assert value == cls(*fields) == cls(**dict(zip(cls.__match_args__, fields))) and hash(value) == hash(fields)
    assert value.__eq__(fields) is NotImplemented and value != fields
    for name in cls.__match_args__:
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(value, name)
    assert tuple(getattr(value, name) for name in cls.__match_args__) == fields
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(twin) is cls and twin == value and hash(twin) == hash(value) and repr(twin) == text


def test_values_check_their_input_and_match_by_position():
    assert NumericalSemigroup.from_generators([3, 5]) != NumericalSemigroup.from_generators([3, 7])
    with pytest.raises(ValueError, match="mask must contain 0"):
        NumericalSemigroup(5, 0b110)
    assert ArfSequence([2, 2, 4]).terms == (2, 2, 4) and type(ArfSequence([2, 2, 4]).terms) is tuple
    with pytest.raises(InvalidSequenceError):
        ArfSequence((3, 2))
    match ar_closure([6, 8], 29):
        case ClosureResult(29, (6, 8), True, NumericalSemigroup(F, mask), stages):
            assert (F, mask.bit_count(), stages) == (29, 14, (range(6, 7, 6), range(8, 29, 2)))
            assert [stage.step for stage in stages] == [6, 2]
        case other:
            pytest.fail(f"no match: {other!r}")


def test_cli_surface_is_frozen():
    surface = {
        " ".join(words): [
            a.option_strings[0] if a.option_strings else a.metavar for a in sub._actions if a.dest != "help"
        ]
        for words, sub in leaf_commands(_parser()[0])
    }
    assert surface == CLI


def test_private_helpers_come_only_from_core():
    package = Path(arfsemigroups.__file__).parent
    imports = {path.stem: list(package_imports(path)) for path in sorted(package.glob("*.py"))}
    assert LOWER_LAYERS.keys() <= imports.keys()
    for module, allowed in LOWER_LAYERS.items():
        assert {imported for imported, _ in imports[module]} <= allowed, module
    private = [
        (module, imported, name)
        for module, found in imports.items()
        for imported, names in found
        for name in names
        if name.startswith("_") and imported != "core"
    ]
    assert private == []
    cli = ast.parse((package / "cli.py").read_text())
    reads = [
        node.attr
        for node in ast.walk(cli)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "serialize"
    ]
    assert reads and [attr for attr in reads if attr.startswith("_")] == []
