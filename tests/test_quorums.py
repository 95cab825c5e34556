"""Tests for quorum-system definitions: thresholds, Grid, singleton, weighted."""

import itertools
from math import comb

import numpy as np
import pytest

from repro.errors import QuorumSystemError
from repro.quorums.base import EnumeratedQuorumSystem
from repro.quorums.grid import GridQuorumSystem
from repro.quorums.singleton import SingletonQuorumSystem
from repro.quorums.threshold import (
    MajorityKind,
    ThresholdQuorumSystem,
    majority,
    majority_universe_sizes,
)
from repro.quorums.weighted import WeightedMajorityQuorumSystem
from quorum_oracles import membership_counts_loop


class TestEnumeratedBase:
    def test_valid_system(self):
        qs = EnumeratedQuorumSystem(
            [frozenset({0, 1}), frozenset({1, 2})], name="pair"
        )
        assert qs.universe_size == 3
        assert qs.num_quorums == 2
        assert qs.min_quorum_size == 2

    def test_disjoint_quorums_rejected(self):
        with pytest.raises(QuorumSystemError):
            EnumeratedQuorumSystem([frozenset({0}), frozenset({1})])

    def test_empty_quorum_rejected(self):
        with pytest.raises(QuorumSystemError):
            EnumeratedQuorumSystem([frozenset()])

    def test_no_quorums_rejected(self):
        with pytest.raises(QuorumSystemError):
            EnumeratedQuorumSystem([])

    def test_element_beyond_universe_rejected(self):
        with pytest.raises(QuorumSystemError):
            EnumeratedQuorumSystem([frozenset({0, 5})], universe_size=3)

    def test_membership_counts(self):
        qs = EnumeratedQuorumSystem(
            [frozenset({0, 1}), frozenset({1, 2})], name="pair"
        )
        members = qs.member_index
        counts = np.bincount(members.elements, minlength=3).tolist()
        assert counts == membership_counts_loop(qs) == [1, 2, 1]


class TestMemberIndex:
    def test_pairs_follow_quorum_iteration_order(self):
        qs = GridQuorumSystem(3)
        members = qs.member_index
        expected = [(i, u) for i, q in enumerate(qs.quorums) for u in q]
        got = list(zip(members.quorum_ids.tolist(), members.elements.tolist()))
        assert got == expected

    def test_short_rows_pad_with_a_row_member(self):
        quorums = [frozenset({0, 1, 2}), frozenset({2, 3}), frozenset({0, 3, 4})]
        qs = EnumeratedQuorumSystem(quorums, name="uneven")
        matrix = qs.member_index.matrix
        assert matrix.shape == (3, 3)
        for row, quorum in zip(matrix.tolist(), qs.quorums):
            assert set(row) == set(quorum)

    def test_cached_and_read_only(self):
        qs = GridQuorumSystem(2)
        members = qs.member_index
        assert qs.member_index is members
        with pytest.raises(ValueError):
            members.elements[0] = 1

    def test_non_enumerable_threshold_raises(self):
        with pytest.raises(QuorumSystemError):
            ThresholdQuorumSystem(60, 31).member_index


class TestThreshold:
    def test_intersection_condition_enforced(self):
        with pytest.raises(QuorumSystemError):
            ThresholdQuorumSystem(universe_size=4, quorum_size=2)

    def test_valid_majority(self):
        qs = ThresholdQuorumSystem(5, 3)
        assert qs.num_quorums == comb(5, 3)
        assert qs.min_quorum_size == 3
        assert qs.fault_tolerance == 2

    def test_enumeration_matches_combinations(self):
        qs = ThresholdQuorumSystem(5, 3)
        expected = {
            frozenset(c) for c in itertools.combinations(range(5), 3)
        }
        assert set(qs.quorums) == expected

    def test_all_pairs_intersect(self):
        qs = ThresholdQuorumSystem(6, 4)
        for a, b in itertools.combinations(qs.quorums, 2):
            assert a & b

    def test_large_threshold_not_enumerable(self):
        qs = ThresholdQuorumSystem(49, 25)
        assert not qs.is_enumerable
        with pytest.raises(QuorumSystemError):
            _ = qs.quorums

    def test_quorum_size_bounds(self):
        with pytest.raises(QuorumSystemError):
            ThresholdQuorumSystem(5, 0)
        with pytest.raises(QuorumSystemError):
            ThresholdQuorumSystem(5, 6)
        with pytest.raises(QuorumSystemError):
            ThresholdQuorumSystem(0, 1)


class TestMajorityFamilies:
    @pytest.mark.parametrize(
        "kind,t,n,q",
        [
            (MajorityKind.SIMPLE, 1, 3, 2),
            (MajorityKind.SIMPLE, 4, 9, 5),
            (MajorityKind.BFT, 1, 4, 3),
            (MajorityKind.BFT, 3, 10, 7),
            (MajorityKind.QU, 1, 6, 5),
            (MajorityKind.QU, 5, 26, 21),
        ],
    )
    def test_family_parameters(self, kind, t, n, q):
        qs = majority(kind, t)
        assert qs.universe_size == n
        assert qs.quorum_size == q

    def test_accepts_string_kind(self):
        qs = majority("(2t+1, 3t+1)", 2)
        assert qs.universe_size == 7

    def test_invalid_t(self):
        with pytest.raises(QuorumSystemError):
            majority(MajorityKind.SIMPLE, 0)

    def test_universe_sizes_sweep(self):
        sizes = majority_universe_sizes(MajorityKind.SIMPLE, 49)
        assert sizes == [3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27,
                         29, 31, 33, 35, 37, 39, 41, 43, 45, 47, 49]

    def test_universe_sizes_qu(self):
        assert majority_universe_sizes(MajorityKind.QU, 49) == [
            6, 11, 16, 21, 26, 31, 36, 41, 46,
        ]


class TestGrid:
    def test_basic_shape(self):
        g = GridQuorumSystem(3)
        assert g.universe_size == 9
        assert g.num_quorums == 9
        assert g.min_quorum_size == 5

    def test_quorum_is_row_plus_column(self):
        g = GridQuorumSystem(3)
        q = g.quorum_for(1, 2)
        rows = {g.element(1, c) for c in range(3)}
        cols = {g.element(r, 2) for r in range(3)}
        assert q == frozenset(rows | cols)

    def test_all_pairs_intersect(self):
        g = GridQuorumSystem(4)
        for a, b in itertools.combinations(g.quorums, 2):
            assert a & b

    def test_element_cell_round_trip(self):
        g = GridQuorumSystem(5)
        for e in range(25):
            r, c = g.cell(e)
            assert g.element(r, c) == e

    def test_uniform_load_formula(self):
        g = GridQuorumSystem(4)
        assert g.uniform_load == pytest.approx(7 / 16)

    def test_k1_degenerates_to_singletonish(self):
        g = GridQuorumSystem(1)
        assert g.quorums == (frozenset({0}),)

    def test_out_of_range_cell(self):
        g = GridQuorumSystem(2)
        with pytest.raises(QuorumSystemError):
            g.element(2, 0)
        with pytest.raises(QuorumSystemError):
            g.cell(4)
        with pytest.raises(QuorumSystemError):
            g.quorum_for(0, 2)

    def test_invalid_k(self):
        with pytest.raises(QuorumSystemError):
            GridQuorumSystem(0)


class TestSingleton:
    def test_shape(self):
        s = SingletonQuorumSystem()
        assert s.universe_size == 1
        assert s.quorums == (frozenset({0}),)
        assert s.min_quorum_size == 1
        s.validate()


class TestWeightedMajority:
    def test_equal_weights_is_majority(self):
        w = WeightedMajorityQuorumSystem([1, 1, 1])
        assert set(w.quorums) == {
            frozenset({0, 1}),
            frozenset({0, 2}),
            frozenset({1, 2}),
        }

    def test_dictator_weight(self):
        w = WeightedMajorityQuorumSystem([5, 1, 1, 1])
        # Element 0 holds 5 of 8 votes: {0} alone is a quorum and minimal.
        assert frozenset({0}) in w.quorums
        # Every quorum must include 0 (the rest sum to 3 < 4.x threshold).
        assert all(0 in q for q in w.quorums)

    def test_quorums_are_minimal(self):
        w = WeightedMajorityQuorumSystem([3, 2, 2, 1])
        for a, b in itertools.permutations(w.quorums, 2):
            assert not a < b

    def test_all_pairs_intersect(self):
        w = WeightedMajorityQuorumSystem([3, 2, 2, 1, 1])
        for a, b in itertools.combinations(w.quorums, 2):
            assert a & b

    def test_validation_errors(self):
        with pytest.raises(QuorumSystemError):
            WeightedMajorityQuorumSystem([])
        with pytest.raises(QuorumSystemError):
            WeightedMajorityQuorumSystem([0, 1])
        with pytest.raises(QuorumSystemError):
            WeightedMajorityQuorumSystem([1] * 30)
