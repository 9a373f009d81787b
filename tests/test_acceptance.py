"""Acceptance gate: one test per shipped guarantee.

Each test pins exact frozen values (worked examples or oracle output) plus
the promised wall-time bound where one exists.  Run with -v to get one
pass/fail line per guarantee.
"""

import json
import time

from click.testing import CliRunner

from apery_route import (
    apery_after_adjoin,
    apery_by_membership,
    generators_by_membership,
    med_frobenius_genus_formula,
)
from arfsemigroups import (
    ar_closure,
    arf_sequences_with_total,
    brute_all_semigroups,
    brute_is_arf,
    count_rank_one,
    enumerate_ar,
    refinement_candidates,
    refinement_free_sequences,
    semigroup_of_sequence,
    sequence_of_semigroup,
    validate_sequence,
    NumericalSemigroup,
)
from arfsemigroups.cli import main


def run_cli(*args):
    return CliRunner().invoke(main, list(args))


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


def test_02_tree_enumeration_equals_brute_force_for_f_up_to_12():
    started = time.perf_counter()
    for F in range(1, 13):
        fast = set(enumerate_ar(F).semigroups())
        brute = {S for S in brute_all_semigroups(F) if brute_is_arf(S)}
        assert fast == brute, f"mismatch at F={F}"
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
        for node in tree.nodes:
            S = node.semigroup
            assert S.genus() + S.small_count() == F + 1
            assert S.embedding_dim() <= S.multiplicity()
            assert S.is_med()
            f_formula, g_formula = med_frobenius_genus_formula(S.minimal_generators())
            assert f_formula == F and g_formula == S.genus()
        for A in members:
            for B in members:
                assert A.intersect(B) in universe
        for child_i, parent_i in tree.edges():
            child = tree.nodes[child_i]
            S = child.semigroup
            assert S.apery_set(F + 1) == apery_by_membership(S, F + 1)
            assert S.minimal_generators() == generators_by_membership(S)


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
            for i, x in enumerate(seq, start=1):
                for a in range(2, x - 1):
                    spliced = (*seq.terms[: i - 1], a, x - a, *seq.terms[i:])
                    assert refinement_candidates(seq, i, a) == validate_sequence(spliced)
    for F in range(1, 13):
        free = refinement_free_sequences(F)
        maximal = enumerate_ar(F).maximal_semigroups()
        assert len(free) == len(maximal)
        assert {semigroup_of_sequence(s) for s in free} == set(maximal)
    assert time.perf_counter() - started < 60.0


def test_09_threaded_enumeration_is_byte_identical():
    for fmt in ("table", "csv", "json"):
        single = run_cli("enumerate", "30", "--format", fmt)
        threaded = run_cli("enumerate", "30", "--format", fmt, "--threads", "4")
        assert single.exit_code == 0 and threaded.exit_code == 0
        assert threaded.stdout == single.stdout
    assert len(run_cli("enumerate", "30", "--format", "csv").stdout.strip().splitlines()) == 151


def test_10_tree_walk_sequence_generator_and_oracle_agree():
    started = time.perf_counter()
    for F in [*range(1, 41), 60]:
        tree = enumerate_ar(F)
        seqs = arf_sequences_with_total(F + 1)
        assert len(tree) == len(seqs)
        assert set(tree.semigroups()) == {semigroup_of_sequence(q) for q in seqs}
        for child_i, parent_i in tree.edges():
            child = tree.nodes[child_i].semigroup.difference_sequence()
            parent = tree.nodes[parent_i].semigroup.difference_sequence()
            assert child[:-2] == parent[:-1] and child[-2] + child[-1] == parent[-1]
        free = {semigroup_of_sequence(q) for q in refinement_free_sequences(F)}
        assert set(tree.maximal_semigroups()) == free
        if F <= 14:
            brute = [S for S in brute_all_semigroups(F) if brute_is_arf(S)]
            assert set(tree.semigroups()) == set(brute)
            # inclusion-maximal by definition, independent of the refinement test
            maximal = {S for S in brute if not any(S != T and S.issubset(T) for T in brute)}
            assert free == maximal
    assert time.perf_counter() - started < 30.0
