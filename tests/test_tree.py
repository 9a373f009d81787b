"""Tests for child computation, incremental tables and the full enumeration."""

import inspect

import pytest

from apery_route import (
    apery_after_adjoin,
    apery_by_membership,
    generators_by_membership,
    med_adjunction_test,
    msg_after_adjoin,
    special_gaps_from_apery,
)
from arfsemigroups import (
    InvalidFrobeniusError,
    NotInCovarietyError,
    NumericalSemigroup,
    ScaleLimitError,
    brute_all_semigroups,
    brute_is_arf,
    children,
    enumerate_ar,
    is_member_ar,
    maximal_elements,
)
from arfsemigroups.core import _TREE_LIMIT, _iter_bits, _multiplicity
from full_check import assert_checked
from mask_rescan import mask_splits, maximal_semigroups
from prefix_walk import splits_by_prefix_walk

# |Ar(F)| for F = 1..12, frozen from the brute-force oracle
EXPECTED_COUNTS = [1, 1, 2, 2, 4, 3, 7, 6, 10, 9, 17, 12]


def sg(*gens):
    return NumericalSemigroup.from_generators(gens)


def depths_by_parent_chain(parents):
    """Depth of each node from the parent indices alone: the root 0, a child its parent's + 1."""
    assert parents[0] == -1 and all(0 <= p < i for i, p in enumerate(parents) if i)
    depths = [0]
    for p in parents[1:]:
        depths.append(depths[p] + 1)
    return depths


class TestMedAdjunction:
    def test_worked_examples(self):
        assert not med_adjunction_test(sg(5, 8, 9, 12), 4)
        assert med_adjunction_test(NumericalSemigroup.delta(6), 4)
        assert med_adjunction_test(NumericalSemigroup.delta(5), 3)

    def test_precondition_violations(self):
        with pytest.raises(AssertionError):
            med_adjunction_test(sg(5, 8, 9, 12), 6)  # above the multiplicity
        with pytest.raises(AssertionError):
            med_adjunction_test(sg(5, 8, 9, 12), 3)  # a gap but not special
        with pytest.raises(AssertionError):
            med_adjunction_test(NumericalSemigroup.natural(), 1)


class TestIncrementalTables:
    def test_apery_after_adjoin_values(self):
        ap = sg(5, 7, 9).apery_set(5)
        assert tuple(sorted(apery_after_adjoin(ap, 11))) == (0, 7, 9, 11, 18)
        assert tuple(sorted(apery_after_adjoin(ap, 13))) == (0, 7, 9, 13, 16)

    def test_apery_after_adjoin_from_root(self):
        ap = NumericalSemigroup.delta(5).apery_set(6)
        assert tuple(sorted(ap)) == (0, 7, 8, 9, 10, 11)
        updated = apery_after_adjoin(ap, 3)
        assert tuple(sorted(updated)) == (0, 3, 7, 8, 10, 11)
        assert updated == sg(3, 7, 8).apery_set(6)

    def test_apery_after_adjoin_rejects_unknown_entry(self):
        ap = sg(5, 7, 9).apery_set(5)
        with pytest.raises(AssertionError):
            apery_after_adjoin(ap, 12)  # 17 is not an entry

    def test_msg_after_adjoin_values(self):
        assert msg_after_adjoin((7, 8, 9, 10, 11, 12, 13), 4) == (4, 7, 9, 10)
        assert msg_after_adjoin((6, 7, 8, 9, 10, 11), 3) == (3, 7, 8)
        assert msg_after_adjoin((4, 6, 7, 9), 2) == (2, 7)

    def test_msg_after_adjoin_rejects(self):
        with pytest.raises(AssertionError):
            msg_after_adjoin((4, 6, 7, 9), 5)
        with pytest.raises(AssertionError):
            msg_after_adjoin((4, 6), 3)  # residue 2 mod 3 unrepresented

    def test_incremental_matches_scratch_on_every_edge(self):
        for F in range(1, 13):
            tree = enumerate_ar(F)
            semigroups = tree.semigroups()
            for child_i, parent_i in tree.edges():
                S = semigroups[child_i]
                assert S.remove_multiplicity() == semigroups[parent_i]
                assert S.apery_set(F + 1) == apery_by_membership(S, F + 1)
                assert S.minimal_generators() == generators_by_membership(S)


class TestAdjunctionRouteCrossCheck:
    """The Apery/MED-adjunction view of the tree, checked against the sequence walk."""

    def test_adjunction_route_agrees_with_the_walk_up_to_f30(self):
        for F in range(1, 31):
            tree = enumerate_ar(F)
            semigroups = tree.semigroups()
            kids = {i: [] for i in range(len(tree))}
            for child_i, parent_i in tree.edges():
                kids[parent_i].append(child_i)
            for i, S in enumerate(semigroups):
                m = S.multiplicity()
                ap = S.apery_set(F + 1)
                adjoined = [semigroups[c].multiplicity() for c in kids[i]]
                expected = [
                    x
                    for x in special_gaps_from_apery(ap)
                    if x < m and x != F and med_adjunction_test(S, x)
                ]
                assert adjoined == expected, (F, S)
                assert children(S) == [semigroups[c] for c in kids[i]]
                for c, x in zip(kids[i], adjoined):
                    T = semigroups[c]
                    assert msg_after_adjoin(S.minimal_generators(), x) == T.minimal_generators()
                    assert apery_after_adjoin(ap, x) == T.apery_set(F + 1)


class TestMaskSplits:
    """The bit tests on node masks, checked against the prefix walk of the sequence."""

    def test_every_split_of_every_node_matches_the_prefix_walk_up_to_f60(self):
        for F in range(1, 61):
            tree = enumerate_ar(F)
            semigroups = tree.semigroups()
            kids = {i: [] for i in range(len(tree))}
            for child_i, parent_i in tree.edges():
                kids[parent_i].append(semigroups[child_i].multiplicity())
            maximal = []
            for k, S in enumerate(semigroups):
                xs = S.difference_sequence()
                # term x_i spans [u, v] with v = F + 1 - (x_1 + ... + x_{i-1})
                want = {(F + 1 - sum(xs[: i - 1]), a) for i, a in splits_by_prefix_walk(xs)}
                got = list(mask_splits(F, S.mask))
                assert len(got) == len(set(got)) and set(got) == want, (F, xs)
                m = S.multiplicity()
                assert kids[k] == sorted(m - a for v, a in want if v == m), (F, xs)
                assert [T.multiplicity() for T in children(S)] == kids[k]
                if not want:
                    maximal.append(k)
            assert tree.maximal_indices() == maximal, F

    def test_small_frobenius_numbers_have_one_maximal_member(self):
        for F in (1, 2, 3):
            assert len(enumerate_ar(F).maximal_indices()) == 1, F

    def test_no_node_with_a_child_is_maximal(self):
        for F in range(1, 61):
            tree = enumerate_ar(F)
            assert not set(tree.maximal_indices()) & set(tree.parents), F

    def test_a_leaf_whose_upper_term_splits_is_not_maximal(self):
        # {0, 4, 8, ->} has sequence (4, 4): its bottom term does not split, so it
        # is a leaf, but its upper term (4, 8) splits as (2, 2), into {0, 4, 6, 8, ->}
        tree = enumerate_ar(7)
        semigroups = tree.semigroups()
        leaf = semigroups.index(NumericalSemigroup.from_small_elements(7, (0, 4)))
        above = NumericalSemigroup.from_small_elements(7, (0, 4, 6))
        assert leaf not in tree.parents
        assert semigroups[leaf].difference_sequence() == (4, 4)
        assert semigroups[leaf].issubset(above) and above in semigroups
        assert leaf not in tree.maximal_indices()

    def test_type_is_multiplicity_minus_one_on_every_node_up_to_f40(self):
        # tree nodes are Arf, hence MED, which the table and csv rows rely on
        for F in range(1, 41):
            for S in enumerate_ar(F).semigroups():
                assert S.semigroup_type() == S.multiplicity() - 1, S


class TestChildren:
    def test_children_of_root(self):
        got = [c.minimal_generators() for c in children(NumericalSemigroup.delta(5))]
        assert got == [(3, 7, 8), (4, 6, 7, 9)]

    def test_leaf_and_interior(self):
        assert children(sg(3, 7, 8)) == []
        assert [c.minimal_generators() for c in children(sg(4, 6, 7, 9))] == [(2, 7)]

    def test_rejects_non_members(self):
        with pytest.raises(NotInCovarietyError):
            children(sg(5, 7, 9))
        with pytest.raises(NotInCovarietyError):
            children(NumericalSemigroup.natural())

    def test_rejection_message_stays_short(self):
        # F = 130,319: the message names F and m instead of listing the members
        with pytest.raises(NotInCovarietyError) as exc:
            children(sg(361, 363))
        assert str(exc.value) == (
            "the semigroup with Frobenius number 130319 and multiplicity 361"
            " is not an Arf semigroup with positive Frobenius number"
        )

    def test_adjunction_exactly_characterizes_membership(self):
        for F in range(1, 13):
            for S in enumerate_ar(F).semigroups():
                for x in S.special_gaps():
                    if x < S.multiplicity() and x != F:
                        assert med_adjunction_test(S, x) == is_member_ar(S.adjoin(x), F)


class TestEnumeration:
    def test_nodes_and_children_pass_the_full_check(self):
        for F in range(1, 31):
            for S in enumerate_ar(F).semigroups():
                assert_checked(S)
                for child in children(S):
                    assert_checked(child)

    def test_f5_exact_canonical_order(self):
        tree = enumerate_ar(5)
        assert [S.minimal_generators() for S in tree.semigroups()] == [
            (6, 7, 8, 9, 10, 11),
            (3, 7, 8),
            (4, 6, 7, 9),
            (2, 7),
        ]
        assert tree.edges() == [(1, 0), (2, 0), (3, 2)]
        assert tree.parents == (-1, 0, 0, 2)
        assert tree.depth_counts() == (1, 2, 1)

    def test_f1_singleton(self):
        tree = enumerate_ar(1)
        assert tree.semigroups() == [NumericalSemigroup.delta(1)]

    def test_counts_match_oracle(self):
        for F, expected in enumerate(EXPECTED_COUNTS, start=1):
            assert len(enumerate_ar(F)) == expected
            oracle = {S.small_elements() for S in brute_all_semigroups(F) if brute_is_arf(S)}
            assert {S.small_elements() for S in enumerate_ar(F).semigroups()} == oracle

    def test_every_node_is_member(self):
        for F in (5, 9, 12):
            for S in enumerate_ar(F).semigroups():
                assert is_member_ar(S, F)

    def test_canonical_node_order(self):
        for F in (7, 11, 14):
            tree = enumerate_ar(F)
            depths = depths_by_parent_chain(tree.parents)
            keys = [(d, S.small_elements()) for d, S in zip(depths, tree.semigroups())]
            assert keys == sorted(keys)

    def test_depth_and_genus_read_off_the_mask_match_the_parent_chain_up_to_f40(self):
        # the renderers and depth_counts take a node's depth as its bit count - 2
        for F in range(1, 41):
            tree = enumerate_ar(F)
            depths = depths_by_parent_chain(tree.parents)
            assert [mask.bit_count() - 2 for mask in tree.masks] == depths, F
            assert [S.genus() for S in tree.semigroups()] == [F - d for d in depths], F
            levels = [depths.count(d) for d in range(max(depths) + 1)]
            assert tree.depth_counts() == tuple(levels), F
            assert tree.edges() == list(enumerate(tree.parents))[1:], F

    def test_a_child_is_its_parent_and_its_multiplicity_on_every_accepted_frobenius_number(self):
        # the walk's bucket e and the JSON rows' parent text rest on these
        for F in range(1, _TREE_LIMIT + 1):
            tree = enumerate_ar(F)
            masks, parents = tree.masks, tree.parents
            smalls = [tuple(_iter_bits(mask ^ 1 << (F + 1))) for mask in masks]
            kids = [[] for _ in masks]
            for i in range(1, len(masks)):
                p, e = parents[i], _multiplicity(masks[i])
                assert masks[i] ^ masks[p] == 1 << e, (F, i)
                assert smalls[i] == (0, e, *smalls[p][1:]), (F, i)
                kids[p].append(e)
            for S, es in zip(tree.semigroups(), kids):
                assert [child.multiplicity() for child in children(S)] == es, (F, S)

    def test_limits(self):
        with pytest.raises(InvalidFrobeniusError, match=r"^frobenius must be >= 1, got 0$"):
            enumerate_ar(0)
        with pytest.raises(ScaleLimitError, match=f"limit {_TREE_LIMIT}"):
            enumerate_ar(_TREE_LIMIT + 1)
        assert list(inspect.signature(enumerate_ar).parameters) == ["frobenius"]

    def test_intersections_stay_inside(self):
        for F in range(1, 11):
            smalls = {S.small_elements() for S in enumerate_ar(F).semigroups()}
            members = [S for S in enumerate_ar(F).semigroups()]
            for A in members:
                for B in members:
                    assert A.intersect(B).small_elements() in smalls

    def test_maximal_against_sequence_route(self):
        for F in range(1, 13):
            tree = enumerate_ar(F)
            via_tree = {S.small_elements() for S in maximal_semigroups(tree)}
            via_seq = {S.small_elements() for S in maximal_elements(F)}
            assert via_tree == via_seq


class TestMembership:
    def test_examples(self):
        assert is_member_ar(sg(2, 7), 5)
        assert not is_member_ar(sg(5, 7, 9), 13)
        assert not is_member_ar(NumericalSemigroup.delta(5), 6)
        assert not is_member_ar(NumericalSemigroup.natural(), 1)
