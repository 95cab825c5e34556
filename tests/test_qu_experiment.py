"""Tests for the Section-3 Q/U experiment harness."""

import numpy as np
import pytest

from repro.core.placement import PlacedQuorumSystem, Placement
from repro.errors import SimulationError
from repro.obs import Tracer, tracing
from repro.qu.service import QUService
from repro.quorums.threshold import ThresholdQuorumSystem
from repro.sim.experiment import (
    QUExperimentConfig,
    run_qu_experiment,
    select_client_sites,
)
from repro.sim.metrics import summarize


class TestConfig:
    def test_derived_parameters(self):
        cfg = QUExperimentConfig(t=3, clients_per_site=4)
        assert cfg.n_servers == 16
        assert cfg.quorum_size == 13
        assert cfg.n_clients == 40


class TestClientSiteSelection:
    def test_selects_requested_count(self, planetlab):
        qs = ThresholdQuorumSystem(6, 5)
        placed = PlacedQuorumSystem(
            qs, Placement(np.arange(6)), planetlab
        )
        sites = select_client_sites(planetlab, placed, n_sites=10)
        assert len(sites) == 10
        assert len(set(sites.tolist())) == 10

    def test_sites_approximate_global_average(self, planetlab):
        """The chosen sites' average balanced delay is closer to the
        all-nodes average than a random choice would typically be."""
        from repro.core.response_time import evaluate
        from repro.core.strategy import ThresholdBalancedStrategy

        qs = ThresholdQuorumSystem(6, 5)
        placed = PlacedQuorumSystem(
            qs, Placement(np.arange(6)), planetlab
        )
        sites = select_client_sites(planetlab, placed, n_sites=10)
        per_node = evaluate(
            placed, ThresholdBalancedStrategy(), alpha=0.0
        ).per_client_network_delay
        target = per_node.mean()
        chosen_gap = abs(per_node[sites].mean() - target)
        assert chosen_gap < 0.1 * target


class TestRunExperiment:
    def test_small_run_completes(self, planetlab):
        cfg = QUExperimentConfig(
            t=1, clients_per_site=1, duration_ms=800.0, warmup_ms=100.0
        )
        result = run_qu_experiment(planetlab, cfg)
        assert result.operations_completed > 0
        assert result.mean_response_ms > result.mean_network_delay_ms
        assert len(result.server_nodes) == 6
        assert len(result.client_sites) == 10

    def test_measured_close_to_analytic_at_low_load(self, planetlab):
        """With one client per site the measured network delay matches the
        analytic balanced expectation closely."""
        cfg = QUExperimentConfig(
            t=1, clients_per_site=1, duration_ms=1500.0, warmup_ms=200.0
        )
        result = run_qu_experiment(planetlab, cfg)
        assert result.mean_network_delay_ms == pytest.approx(
            result.analytic_network_delay_ms, rel=0.1
        )

    def test_more_clients_more_utilization(self, planetlab):
        low = run_qu_experiment(
            planetlab,
            QUExperimentConfig(
                t=1, clients_per_site=1, duration_ms=800.0, warmup_ms=100.0
            ),
        )
        high = run_qu_experiment(
            planetlab,
            QUExperimentConfig(
                t=1, clients_per_site=6, duration_ms=800.0, warmup_ms=100.0
            ),
        )
        assert (
            high.mean_server_utilization > low.mean_server_utilization
        )

    def test_universe_too_large_rejected(self, line_topology):
        cfg = QUExperimentConfig(t=2)  # needs 11 nodes of 10
        with pytest.raises(SimulationError):
            run_qu_experiment(line_topology, cfg)

    def test_deterministic_given_seed(self, planetlab):
        cfg = QUExperimentConfig(
            t=1, clients_per_site=2, duration_ms=600.0, warmup_ms=100.0,
            seed=11,
        )
        a = run_qu_experiment(planetlab, cfg)
        b = run_qu_experiment(planetlab, cfg)
        assert a.mean_response_ms == b.mean_response_ms
        assert a.operations_completed == b.operations_completed


class TestGoldenCells:
    """Exact outputs of two short Q/U cells, pinned so that a change in
    protocol behaviour (ordering, history bookkeeping, retries) fails
    tier-1 rather than only the benchmark's output check."""

    def test_private_object_cell(self, planetlab):
        cfg = QUExperimentConfig(
            t=1, clients_per_site=4, duration_ms=1000.0, warmup_ms=200.0,
            seed=11,
        )
        with tracing(Tracer()) as tracer:
            result = run_qu_experiment(planetlab, cfg)
        counters = tracer.export()[1]
        assert result.operations_completed == 428
        assert repr(result.mean_response_ms) == "69.43938646321286"
        assert repr(result.mean_network_delay_ms) == "67.83398902694248"
        assert counters["qu.ops"] == 560
        assert counters["qu.retries"] == 0
        assert counters["qu.requests"] == 2900

    def test_shared_object_cell(self, planetlab):
        """Five writers per object: the contended classify, re-condition
        and backoff path, with prunes of multi-writer histories."""
        service = QUService(planetlab, np.arange(6), quorum_size=5, seed=3)
        for i in range(10):
            service.add_client(10 + i, object_id=i % 2)
        service.run(duration_ms=1500.0)
        stats = summarize(service.all_records(), warmup_ms=100.0)
        assert stats.n_operations == 152
        assert repr(stats.mean_response_ms) == "18.284217549520232"
        assert sum(c.operations_completed for c in service.clients) == 159
        assert sum(c.retries_total for c in service.clients) == 97
        assert sum(s.requests_processed for s in service.servers) == 1292
