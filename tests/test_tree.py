"""Tests for child computation, incremental tables and the full enumeration."""

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
    EnumerationReport,
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

# |Ar(F)| for F = 1..12, frozen from the brute-force oracle
EXPECTED_COUNTS = [1, 1, 2, 2, 4, 3, 7, 6, 10, 9, 17, 12]


def sg(*gens):
    return NumericalSemigroup.from_generators(gens)


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
            for child_i, parent_i in tree.edges():
                child, parent = tree.nodes[child_i], tree.nodes[parent_i]
                S = child.semigroup
                assert S.remove_multiplicity() == parent.semigroup
                assert S.apery_set(F + 1) == apery_by_membership(S, F + 1)
                assert S.minimal_generators() == generators_by_membership(S)
                assert child.depth == parent.depth + 1


class TestAdjunctionRouteCrossCheck:
    """The Apery/MED-adjunction view of the tree, checked against the sequence walk."""

    def test_adjunction_route_agrees_with_the_walk_up_to_f30(self):
        for F in range(1, 31):
            tree = enumerate_ar(F)
            kids = {i: [] for i in range(len(tree))}
            for child_i, parent_i in tree.edges():
                kids[parent_i].append(child_i)
            for i, node in enumerate(tree.nodes):
                S, m = node.semigroup, node.semigroup.multiplicity()
                ap = S.apery_set(F + 1)
                adjoined = [tree.nodes[c].semigroup.multiplicity() for c in kids[i]]
                expected = [
                    x
                    for x in special_gaps_from_apery(ap)
                    if x < m and x != F and med_adjunction_test(S, x)
                ]
                assert adjoined == expected, (F, S)
                assert children(S) == [tree.nodes[c].semigroup for c in kids[i]]
                for c, x in zip(kids[i], adjoined):
                    T = tree.nodes[c].semigroup
                    assert msg_after_adjoin(S.minimal_generators(), x) == T.minimal_generators()
                    assert apery_after_adjoin(ap, x) == T.apery_set(F + 1)


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

    def test_adjunction_exactly_characterizes_membership(self):
        for F in range(1, 13):
            for S in enumerate_ar(F).semigroups():
                for x in S.special_gaps():
                    if x < S.multiplicity() and x != F:
                        assert med_adjunction_test(S, x) == is_member_ar(S.adjoin(x), F)


class TestEnumeration:
    def test_f5_exact_canonical_order(self):
        tree = enumerate_ar(5)
        assert [n.semigroup.minimal_generators() for n in tree.nodes] == [
            (6, 7, 8, 9, 10, 11),
            (3, 7, 8),
            (4, 6, 7, 9),
            (2, 7),
        ]
        assert tree.edges() == [(1, 0), (2, 0), (3, 2)]
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
            nodes = enumerate_ar(F).nodes
            keys = [(n.depth, n.semigroup.small_elements()) for n in nodes]
            assert keys == sorted(keys)

    def test_thread_counts_agree(self):
        single = enumerate_ar(14)
        for threads in (2, 4):
            assert enumerate_ar(14, threads=threads) == single

    def test_limits(self):
        with pytest.raises(InvalidFrobeniusError):
            enumerate_ar(0)
        with pytest.raises(ScaleLimitError):
            enumerate_ar(5, max_nodes=3)
        with pytest.raises(ValueError):
            enumerate_ar(5, threads=0)
        for F, cap in ((1, 0), (2, -5), (5, 0)):
            with pytest.raises(ValueError):
                enumerate_ar(F, max_nodes=cap)

    @pytest.mark.parametrize("F", [5, 12, 20])
    def test_max_nodes_counts_the_root(self, F):
        size = len(enumerate_ar(F))
        assert len(enumerate_ar(F, max_nodes=size)) == size
        with pytest.raises(ScaleLimitError):
            enumerate_ar(F, max_nodes=size - 1)

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
            via_tree = {S.small_elements() for S in tree.maximal_semigroups()}
            via_seq = {S.small_elements() for S in maximal_elements(F)}
            assert via_tree == via_seq

    def test_report(self):
        report = enumerate_ar(5).report(wall_seconds=0.5)
        assert report.node_count == 4
        assert report.depth_counts == (1, 2, 1)
        assert report.maximal_count == 2
        assert report.wall_seconds == 0.5
        with pytest.raises(ValueError):
            EnumerationReport(5, 4, (1, 2), 2, 0.0)


class TestMembership:
    def test_examples(self):
        assert is_member_ar(sg(2, 7), 5)
        assert not is_member_ar(sg(5, 7, 9), 13)
        assert not is_member_ar(NumericalSemigroup.delta(5), 6)
        assert not is_member_ar(NumericalSemigroup.natural(), 1)
