"""Tests for load computations (Section 4 definitions)."""

import numpy as np
import pytest

from repro.core.load import node_loads
from repro.core.placement import PlacedQuorumSystem, Placement
from repro.errors import PlacementError
from repro.placement.fractional import element_loads_of_strategy
from repro.quorums.grid import GridQuorumSystem
from repro.quorums.threshold import ThresholdQuorumSystem
from quorum_oracles import element_loads_loop


@pytest.fixture()
def grid2_placed(line_topology):
    return PlacedQuorumSystem(
        GridQuorumSystem(2), Placement([0, 1, 2, 3]), line_topology
    )


class TestElementLoads:
    def test_uniform_grid_loads(self, grid2_placed):
        uniform = np.full(4, 0.25)
        loads = element_loads_of_strategy(grid2_placed.system, uniform)
        # Each 2x2 grid element is in 3 of the 4 quorums.
        assert np.allclose(loads, 0.75)

    def test_point_mass_loads(self, grid2_placed):
        p = np.zeros(4)
        p[0] = 1.0  # quorum (0,0) = {0, 1, 2}
        loads = element_loads_of_strategy(grid2_placed.system, p)
        assert np.allclose(loads, [1.0, 1.0, 1.0, 0.0])

    def test_wrong_shape_rejected(self, grid2_placed):
        with pytest.raises(PlacementError):
            element_loads_of_strategy(grid2_placed.system, np.full(3, 1 / 3))

    def test_bit_identical_to_loop(self):
        system = GridQuorumSystem(5)
        p = np.random.default_rng(3).dirichlet(np.ones(system.num_quorums))
        assert np.array_equal(
            element_loads_of_strategy(system, p),
            element_loads_loop(system, p),
        )


class TestNodeLoads:
    def test_one_to_one_equals_element_loads(self, grid2_placed):
        uniform = np.full(4, 0.25)
        eloads = element_loads_of_strategy(grid2_placed.system, uniform)
        nloads = node_loads(grid2_placed, uniform)
        assert np.allclose(nloads[:4], eloads)
        assert np.allclose(nloads[4:], 0.0)

    def test_many_to_one_sums_elements(self, line_topology):
        placed = PlacedQuorumSystem(
            GridQuorumSystem(2), Placement([0, 0, 1, 1]), line_topology
        )
        uniform = np.full(4, 0.25)
        nloads = node_loads(placed, uniform)
        # Node 0 hosts elements 0,1 (load .75 each) -> 1.5.
        assert nloads[0] == pytest.approx(1.5)
        assert nloads[1] == pytest.approx(1.5)

    def test_coalesced_counts_nodes_once(self, line_topology):
        placed = PlacedQuorumSystem(
            GridQuorumSystem(2), Placement([0, 0, 1, 1]), line_topology
        )
        uniform = np.full(4, 0.25)
        nloads = node_loads(placed, uniform, coalesce=True)
        # Every quorum touches both nodes exactly once -> load 1 each.
        assert nloads[0] == pytest.approx(1.0)
        assert nloads[1] == pytest.approx(1.0)

    def test_profile_average(self, grid2_placed):
        n_clients = grid2_placed.n_nodes
        profile = np.zeros((n_clients, 4))
        profile[:, 0] = 1.0  # everyone hits quorum 0
        loads = node_loads(grid2_placed, profile)
        assert np.allclose(loads[:4], [1.0, 1.0, 1.0, 0.0])

    def test_average_strategy_equivalence(self, grid2_placed):
        """Global average strategy induces the same node loads as the
        per-client profile (linearity of the load definition)."""
        rng = np.random.default_rng(0)
        profile = rng.dirichlet(np.ones(4), size=grid2_placed.n_nodes)
        via_profile = node_loads(grid2_placed, profile)
        via_average = node_loads(grid2_placed, profile.mean(axis=0))
        assert np.array_equal(via_profile, via_average)

    def test_load_conservation(self, grid2_placed):
        """Total node load equals the expected accessed quorum size."""
        rng = np.random.default_rng(1)
        profile = rng.dirichlet(np.ones(4), size=grid2_placed.n_nodes)
        loads = node_loads(grid2_placed, profile)
        sizes = np.array([len(q) for q in grid2_placed.system.quorums])
        expected = (profile.mean(axis=0) * sizes).sum()
        assert loads.sum() == pytest.approx(expected)

    def test_threshold_uniform_load_is_q_over_n(self, line_topology):
        maj = ThresholdQuorumSystem(5, 3)
        placed = PlacedQuorumSystem(
            maj, Placement([0, 1, 2, 3, 4]), line_topology
        )
        m = maj.num_quorums
        profile = np.full((10, m), 1.0 / m)
        loads = node_loads(placed, profile)
        assert np.allclose(loads[:5], 3 / 5)
