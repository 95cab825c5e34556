"""Tests for the shared-memory topology transport.

The contract under test: publishing a topology and resolving the handle —
in the publisher or in a worker — yields the publisher's exact bytes, the
per-point payload shrinks from O(n^2) to O(1), and every fallback path
(no shm, ``REPRO_NO_SHM``, serial runners) degrades to shipping the
topology itself with identical results.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.network.datasets import PLANETLAB_CLUSTERS
from repro.network.generators import generate_cluster_topology
from repro.network.graph import Topology
from repro.placement.search import best_placement
from repro.quorums.grid import GridQuorumSystem
from repro.runtime.cache import topology_fingerprint
from repro.runtime.runner import GridRunner
from repro.runtime.shm import (
    SHM_DISABLE_ENV,
    TopologyBroker,
    TopologyHandle,
    resolve_topology,
    shm_available,
)


@pytest.fixture(scope="module")
def topo():
    return generate_cluster_topology(
        n_sites=30, clusters=PLANETLAB_CLUSTERS, seed=11
    )


class TestAdopt:
    def test_wraps_without_copy(self, topo):
        rtt = topo.rtt.copy()
        rtt.setflags(write=False)
        adopted = Topology.adopt(rtt, topo.names, topo.capacities)
        assert adopted.rtt is rtt
        assert np.array_equal(adopted.rtt, topo.rtt)
        assert adopted.names == topo.names

    def test_rejects_wrong_dtype(self, topo):
        with pytest.raises(TopologyError):
            Topology.adopt(
                topo.rtt.astype(np.float32), topo.names, topo.capacities
            )

    def test_rejects_shape_mismatch(self, topo):
        with pytest.raises(TopologyError):
            Topology.adopt(
                topo.rtt[:, :-1].copy(), topo.names, topo.capacities
            )
        with pytest.raises(TopologyError):
            Topology.adopt(topo.rtt, topo.names[:-1], topo.capacities)


class TestBroker:
    def test_roundtrip_is_bit_identical(self, topo):
        if not shm_available():
            pytest.skip("no shared memory on this platform")
        with TopologyBroker() as broker:
            handle = broker.publish(topo)
            assert isinstance(handle, TopologyHandle)
            # The publisher resolves its own handle to the original object.
            assert resolve_topology(handle) is topo
            # A cold attach (what a worker does) sees the exact bytes.
            from repro.runtime import shm

            shm._PUBLISHED.pop(handle.fingerprint, None)
            try:
                block, rebuilt = shm._attach(handle)
                try:
                    assert np.array_equal(rebuilt.rtt, topo.rtt)
                    assert rebuilt.names == topo.names
                    assert np.array_equal(
                        rebuilt.capacities, topo.capacities
                    )
                    # Zero-copy: the matrix aliases the block's buffer.
                    assert not rebuilt.rtt.flags.owndata
                    assert not rebuilt.rtt.flags.writeable
                finally:
                    del rebuilt
                    block.close()
            finally:
                shm._PUBLISHED[handle.fingerprint] = topo

    def test_handle_is_small_and_size_independent(self, topo):
        if not shm_available():
            pytest.skip("no shared memory on this platform")
        with TopologyBroker() as broker:
            handle = broker.publish(topo)
            payload = len(pickle.dumps(handle))
            matrix = len(pickle.dumps(topo))
            assert payload < 512
            assert payload < matrix / 10

    def test_publish_is_idempotent_per_content(self, topo):
        if not shm_available():
            pytest.skip("no shared memory on this platform")
        with TopologyBroker() as broker:
            first = broker.publish(topo)
            second = broker.publish(topo)
            assert first is second
            assert broker.published == (topology_fingerprint(topo),)

    def test_disable_env_forces_fallback(self, topo, monkeypatch):
        monkeypatch.setenv(SHM_DISABLE_ENV, "1")
        assert not shm_available()
        with TopologyBroker() as broker:
            assert broker.publish(topo) is topo

    def test_close_unlinks(self, topo):
        if not shm_available():
            pytest.skip("no shared memory on this platform")
        broker = TopologyBroker()
        handle = broker.publish(topo)
        broker.close()
        assert broker.published == ()
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=handle.shm_name)


class TestResolve:
    def test_topology_passes_through(self, topo):
        assert resolve_topology(topo) is topo

    def test_rejects_garbage(self):
        with pytest.raises(TypeError):
            resolve_topology("not a topology")


class TestRunnerIntegration:
    def test_serial_runner_ships_topology_itself(self, topo):
        with GridRunner(jobs=1) as runner:
            assert runner.ship(topo) is topo

    def test_parallel_runner_ships_handle(self, topo):
        if not shm_available():
            pytest.skip("no shared memory on this platform")
        with GridRunner(jobs=2) as runner:
            shipped = runner.ship(topo)
            assert isinstance(shipped, TopologyHandle)

    def test_search_identical_through_workers(self, topo):
        """A jobs=2 runner fans candidates out with handles; results must match
        the serial search on the original object exactly."""
        system = GridQuorumSystem(3)
        serial = best_placement(topo, system)
        with GridRunner(jobs=2) as runner:
            parallel = best_placement(topo, system, runner=runner)
        assert serial.v0 == parallel.v0
        assert serial.avg_network_delay == parallel.avg_network_delay
        assert serial.delays_by_candidate == parallel.delays_by_candidate

    def test_search_identical_with_shm_disabled(self, topo, monkeypatch):
        """The pickle fallback is slower, never different."""
        system = GridQuorumSystem(3)
        baseline = best_placement(topo, system)
        monkeypatch.setenv(SHM_DISABLE_ENV, "1")
        with GridRunner(jobs=2) as runner:
            fallback = best_placement(topo, system, runner=runner)
        assert baseline.v0 == fallback.v0
        assert baseline.delays_by_candidate == fallback.delays_by_candidate
