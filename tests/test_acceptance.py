"""Acceptance gate: one test per shipped guarantee.

Each test pins exact frozen values (worked examples or oracle output) plus
the promised wall-time bound where one exists.  Run with -v to get one
pass/fail line per guarantee.
"""

import functools
import json
import math
import random
import time

import pytest

from apery_route import (
    apery_after_adjoin,
    apery_by_membership,
    generators_by_membership,
    med_frobenius_genus_formula,
)
from arfsemigroups import (
    admits_proper_refinement,
    ar_closure,
    arf_sequences_with_total,
    brute_all_semigroups,
    brute_is_arf,
    count_rank_one,
    enumerate_ar,
    iter_refinements,
    maximal_elements,
    refinement_free_sequences,
    semigroup_of_sequence,
    sequence_of_semigroup,
    validate_sequence,
    NotAMemberError,
    NumericalSemigroup,
    ScaleLimitError,
)
from arfsemigroups.core import _TREE_LIMIT, _canonical_key
from arfsemigroups.oracle import _MAX_BRUTE_FROBENIUS
from cli_runner import run as run_cli
from mask_rescan import maximal_by_rescan, maximal_semigroups


def test_01_enumerate_f5_gives_the_four_known_members():
    started = time.perf_counter()
    res = run_cli("enumerate", "5", "--format", "json")
    elapsed = time.perf_counter() - started
    assert res.exit_code == 0
    got = {tuple(d["min_generators"]) for d in json.loads(res.stdout)}
    assert got == {
        (6, 7, 8, 9, 10, 11),
        (3, 7, 8),
        (4, 6, 7, 9),
        (2, 7),
    }
    assert len(json.loads(res.stdout)) == 4
    assert elapsed < 1.0


@functools.cache
def _brute_arf(F):
    """The oracle's Arf semigroups with Frobenius number F, searched once for test_02 and test_10."""
    return frozenset(S for S in brute_all_semigroups(F) if brute_is_arf(S))


def test_02_tree_enumeration_equals_brute_force_up_to_the_oracle_cap():
    started = time.perf_counter()
    for F in range(1, _MAX_BRUTE_FROBENIUS + 1):
        assert set(enumerate_ar(F).semigroups()) == _brute_arf(F), f"mismatch at F={F}"
    assert time.perf_counter() - started < 120.0


def test_03_check_reports_arf_flag_and_difference_sequence():
    yes = json.loads(run_cli("check", "4,6,21,23", "--format", "json").stdout)
    assert yes["is_arf"] is True
    assert yes["sequence"] == [2, 2, 2, 2, 2, 2, 2, 2, 4]
    no = json.loads(run_cli("check", "4,17,18,23", "--format", "json").stdout)
    assert no["is_arf"] is False
    assert no["sequence"] == [2, 1, 1, 4, 4, 4, 4]


def test_04_apery_pipeline_on_the_worked_example():
    S = NumericalSemigroup.from_generators((5, 7, 9))
    ap = S.apery_set(5)
    assert tuple(sorted(ap)) == (0, 7, 9, 16, 18)
    assert S.pseudo_frobenius() == (11, 13)
    assert S.special_gaps() == (11, 13)
    assert tuple(sorted(apery_after_adjoin(ap, 11))) == (0, 7, 9, 11, 18)


def test_05_closure_of_6_8_at_frobenius_29():
    res = run_cli("closure", "29", "--set", "6,8", "--format", "json")
    assert res.exit_code == 0
    obj = json.loads(res.stdout)
    assert obj["is_ar_set"] is True
    assert obj["closure"]["min_generators"] == [6, 8, 10, 31, 33, 35]
    assert obj["rank"] == 2
    gens = json.loads(run_cli("minimal-gens", "6,8,10,31,33,35", "--format", "json").stdout)
    assert gens["minimal_system"] == [6, 8]


def test_06_rank_one_count_and_hull_genus():
    assert run_cli("rank-one", "360", "--count").stdout == "336\n"
    assert count_rank_one(360) == 336
    hull = ar_closure([5], 17)
    assert hull.is_ar_set
    assert hull.closure.genus() == 14


def test_07_structural_properties_hold_on_every_node_up_to_f12():
    for F in range(1, 13):
        tree = enumerate_ar(F)
        members = tree.semigroups()
        universe = set(members)
        for S in members:
            assert S.genus() + S.small_count() == F + 1
            assert S.embedding_dim() <= S.multiplicity()
            assert S.is_med()
            f_formula, g_formula = med_frobenius_genus_formula(S.minimal_generators())
            assert f_formula == F and g_formula == S.genus()
        for A in members:
            for B in members:
                assert A.intersect(B) in universe
        for child_i, parent_i in tree.edges():
            S = members[child_i]
            assert S.minimal_generators() == generators_by_membership(S)


def test_07_abstract_properties_hold_as_mask_identities_up_to_f90_pairwise_up_to_f60():
    # the abstract's three properties of Ar(F), on the tree's masks over [0, F+1] and plain AND:
    # the minimum is {0, F+1, ->} and removing the multiplicity (the lowest positive bit) of any
    # other member gives a member, for every F <= 90; members are closed under intersection, a
    # check on every pair of members, for every F <= 60
    for F in range(1, _TREE_LIMIT + 1):
        masks = enumerate_ar(F).masks
        root = 1 | 1 << (F + 1)
        universe = set(masks)
        common = masks[0]
        for i, a in enumerate(masks):
            common &= a
            if F <= 60:
                assert all(a & b in universe for b in masks[i + 1:]), F
            if a != root:
                low = a & ~1
                assert a ^ (low & -low) in universe, (F, a)
        assert common == root, F


def test_07_hull_is_the_and_of_the_members_containing_x_up_to_f40():
    # the hull theorem on the tree's masks and plain AND, independent of the chain: the hull of X
    # is the intersection of the members of Ar(F) that contain X, and X has none exactly when
    # no member contains it
    rng = random.Random(7)
    refused = 0
    for F in range(1, 41):
        masks = enumerate_ar(F).masks
        for _ in range(40):
            X = rng.sample(range(1, F + 1), min(F, rng.randint(0, 3)))
            bits = sum(1 << x for x in X)
            containing = [a for a in masks if a & bits == bits]
            res = ar_closure(X, F)
            assert res.is_ar_set == bool(containing), (X, F)
            if containing:
                common = containing[0]
                for a in containing:
                    common &= a
                assert res.closure.mask == common, (X, F)
            else:
                refused += 1
    assert 0 < refused < 40 * 40


def _nondecreasing_tuples(total, minimum=2):
    if total == 0:
        yield ()
        return
    for first in range(minimum, total + 1):
        for rest in _nondecreasing_tuples(total - first, first):
            yield (first, *rest)


def test_08_sequence_bijection_roundtrip_and_split_rule():
    started = time.perf_counter()
    for total in range(2, 21):
        seqs = [q.terms for q in arf_sequences_with_total(total)]
        # generator output is exactly the brute-force filter of all candidates
        brute = [xs for xs in _nondecreasing_tuples(total) if validate_sequence(xs)]
        assert seqs == brute
        for seq in seqs:
            assert sequence_of_semigroup(semigroup_of_sequence(seq)).terms == seq
    for total in range(2, 17):
        for seq in arf_sequences_with_total(total):
            splits = {(i, a) for i, a, _ in iter_refinements(seq)}
            for i, x in enumerate(seq, start=1):
                for a in range(2, x - 1):
                    spliced = (*seq.terms[: i - 1], a, x - a, *seq.terms[i:])
                    assert ((i, a) in splits) == validate_sequence(spliced)
    for F in range(1, 13):
        free = refinement_free_sequences(F)
        maximal = maximal_semigroups(enumerate_ar(F))
        assert len(free) == len(maximal)
        assert {semigroup_of_sequence(s) for s in free} == set(maximal)
    assert time.perf_counter() - started < 60.0


def test_09_enumeration_is_byte_identical_across_runs():
    for fmt in ("table", "csv", "json"):
        first = run_cli("enumerate", "30", "--format", fmt)
        second = run_cli("enumerate", "30", "--format", fmt)
        assert first.exit_code == 0 and second.exit_code == 0
        assert second.stdout == first.stdout
    assert len(run_cli("enumerate", "30", "--format", "csv").stdout.strip().splitlines()) == 151


def test_10_tree_walk_sequence_generator_and_oracle_agree():
    started = time.perf_counter()
    for F in [*range(1, 41), 60]:
        tree = enumerate_ar(F)
        seqs = arf_sequences_with_total(F + 1)
        assert len(tree) == len(seqs)
        assert set(tree.semigroups()) == {semigroup_of_sequence(q) for q in seqs}
        differences = [S.difference_sequence() for S in tree.semigroups()]
        for child_i, parent_i in tree.edges():
            child, parent = differences[child_i], differences[parent_i]
            assert child[:-2] == parent[:-1] and child[-2] + child[-1] == parent[-1]
        free = {semigroup_of_sequence(q) for q in refinement_free_sequences(F)}
        assert set(maximal_semigroups(tree)) == free
        if F <= _MAX_BRUTE_FROBENIUS:
            brute = _brute_arf(F)
            assert set(tree.semigroups()) == brute
            # inclusion-maximal by definition, independent of the refinement test
            maximal = {S for S in brute if not any(S != T and S.issubset(T) for T in brute)}
            assert free == maximal
    assert time.perf_counter() - started < 30.0


def test_11_walk_and_sequence_generator_agree_on_every_accepted_frobenius_number():
    started = time.perf_counter()
    for F in range(1, _TREE_LIMIT + 1):
        tree = enumerate_ar(F)
        seqs = arf_sequences_with_total(F + 1)
        assert len(tree) == len(seqs), F
        assert set(tree.masks) == {semigroup_of_sequence(q).mask for q in seqs}, F
    with pytest.raises(ScaleLimitError):  # so no larger F goes untested
        enumerate_ar(_TREE_LIMIT + 1)
    assert time.perf_counter() - started < 30.0


def _random_generated(rng):
    """A semigroup on 2 to 4 random generators in [2, 24] with gcd 1."""
    while True:
        gens = rng.sample(range(2, 25), rng.randint(2, 4))
        if math.gcd(*gens) == 1:
            return NumericalSemigroup.from_generators(gens)


def test_12_apery_set_modulo_every_member_matches_membership():
    rng = random.Random(12)
    semigroups = [S for F in range(1, 21) for S in enumerate_ar(F).semigroups()]
    semigroups += [_random_generated(rng) for _ in range(60)]
    semigroups.append(NumericalSemigroup.natural())
    for S in semigroups:
        for n in range(1, S.frobenius + 13):
            if n in S:
                assert S.apery_set(n) == apery_by_membership(S, n), (S, n)
            else:
                with pytest.raises(NotAMemberError):
                    S.apery_set(n)
        for n in (0, -1, -(S.frobenius + 2)):
            with pytest.raises(NotAMemberError):
                S.apery_set(n)
    S = NumericalSemigroup.from_generators((2, 3))
    started = time.perf_counter()
    ap = S.apery_set(100_000)
    assert time.perf_counter() - started < 0.1
    assert ap == (0, 100_001, *range(2, 100_000))


def test_13_maximal_routes_agree_on_every_accepted_frobenius_number():
    # the pruned walk, on the tree and on the semigroups sorted by the canonical key,
    # against the full rescan of every node, and the pruned sequence walk against the
    # filtered generator
    started = time.perf_counter()
    for F in range(1, _TREE_LIMIT + 1):
        tree = enumerate_ar(F)
        assert tree.maximal_indices() == maximal_by_rescan(tree), F
        free = [q.terms for q in refinement_free_sequences(F)]
        assert free == [q.terms for q in arf_sequences_with_total(F + 1) if not admits_proper_refinement(q)], F
        masks = sorted((S.mask for S in maximal_elements(F)), key=_canonical_key)
        assert masks == [tree.masks[i] for i in maximal_by_rescan(tree)], F
    for walk in (maximal_elements, refinement_free_sequences):  # so no larger F goes untested
        with pytest.raises(ScaleLimitError, match=f"refused \\(limit {_TREE_LIMIT}\\)"):
            walk(_TREE_LIMIT + 1)
    assert time.perf_counter() - started < 30.0
