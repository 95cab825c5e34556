"""Benchmark of the shared-memory topology transport at WAN scale.

Before this PR every parallel candidate evaluation shipped its own pickled
:class:`~repro.network.graph.Topology` — an O(n^2) matrix per grid point.
The :class:`~repro.runtime.shm.TopologyBroker` publishes the matrix once
into a ``multiprocessing.shared_memory`` block and ships a ~200-byte
handle instead; workers attach the block once and wrap zero-copy views.

This benchmark measures exactly that replacement on a ``synthetic_wan``
preset: the same candidate search, same pool size, run once through the
broker and once with ``REPRO_NO_SHM=1`` (which restores the
pickle-per-point payloads), plus a hierarchical end-to-end sweep showing
the whole pipeline — clustering, coarse/refined placement, LP capacity
sweep — completes at scale. All three search paths (serial, shm-parallel,
pickle-parallel) must return bit-identical results.

Fast mode (default, CI): 500 sites, ``jobs=2``, speedup bar 1.5x.
Full mode (``REPRO_BENCH_FULL=1``): 2000 sites, ``jobs=4``, speedup bar
3x — the ISSUE acceptance bar, where each pickle payload is ~32 MB.

The run writes ``benchmarks/results/bench_scale.json``.
"""

from __future__ import annotations

import json
import os
import pickle
import resource
import time

import numpy as np
import pytest

from conftest import full_grids_enabled
from repro.core.response_time import alpha_from_demand
from repro.network.generators import synthetic_wan
from repro.obs.bench import BenchRecorder
from repro.placement.hierarchical import hierarchical_best_placement
from repro.placement.search import best_placement
from repro.quorums.grid import GridQuorumSystem
from repro.quorums.load_analysis import optimal_load
from repro.quorums.threshold import ThresholdQuorumSystem
from repro.runtime.runner import GridRunner
from repro.runtime.shm import SHM_DISABLE_ENV, TopologyHandle, shm_available
from repro.strategies.capacity_sweep import (
    capacity_levels,
    sweep_uniform_capacities,
)

FAST = not full_grids_enabled()
N_SITES = 500 if FAST else 2000
JOBS = 2 if FAST else 4
N_CANDIDATES = 32 if FAST else 64
SPEEDUP_BAR = 1.5 if FAST else 3.0  # full bar is the ISSUE acceptance bar
CAPACITY_LEVELS = 3


def _peak_rss_bytes() -> int:
    """Peak RSS of this process + the worst worker, in bytes."""
    factor = 1024  # ru_maxrss is KiB on Linux
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (usage + children) * factor


def _timed_search(topology, system, candidates, jobs):
    """(result, seconds) for one parallel candidate search, pool warm."""
    with GridRunner(jobs=jobs) as runner:
        # Warm the pool (worker spawn, imports) outside the timed window;
        # both transports get the same treatment.
        best_placement(
            topology, system, candidates=candidates[:2], runner=runner
        )
        started = time.perf_counter()
        result = best_placement(
            topology, system, candidates=candidates, runner=runner
        )
        elapsed = time.perf_counter() - started
    return result, elapsed


def test_shm_transport_beats_pickle_per_point(results_dir):
    if not shm_available():
        pytest.skip("no shared memory on this platform")
    topology = synthetic_wan(N_SITES)
    system = ThresholdQuorumSystem(5, 3)
    candidates = np.ascontiguousarray(
        np.argsort(topology.mean_distances())[:N_CANDIDATES]
    )

    serial = best_placement(topology, system, candidates=candidates)

    shm_result, shm_s = _timed_search(topology, system, candidates, JOBS)

    assert not os.environ.get(SHM_DISABLE_ENV)
    os.environ[SHM_DISABLE_ENV] = "1"
    try:
        pickle_result, pickle_s = _timed_search(
            topology, system, candidates, JOBS
        )
    finally:
        del os.environ[SHM_DISABLE_ENV]

    # The transport must never change results: serial, shm-parallel and
    # pickle-parallel agree to the bit.
    for other in (shm_result, pickle_result):
        assert other.v0 == serial.v0
        assert other.avg_network_delay == serial.avg_network_delay
        assert other.delays_by_candidate == serial.delays_by_candidate

    # Per-point payloads: the handle vs the full pickled topology.
    with GridRunner(jobs=JOBS) as runner:
        shipped = runner.ship(topology)
        assert isinstance(shipped, TopologyHandle)
        handle_bytes = len(pickle.dumps(shipped))
    topology_bytes = len(pickle.dumps(topology))
    assert handle_bytes < 4096

    speedup = pickle_s / shm_s
    recorder = BenchRecorder("scale_shm_transport")
    recorder.update(
        mode="fast" if FAST else "full",
        topology=f"synthetic-wan-{N_SITES}",
        n_sites=N_SITES,
        system="majority:simple:2",
        jobs=JOBS,
        candidates=int(len(candidates)),
        shm_seconds=shm_s,
        pickle_seconds=pickle_s,
        shm_candidates_per_second=len(candidates) / shm_s,
        pickle_candidates_per_second=len(candidates) / pickle_s,
        speedup=speedup,
        ship_bytes_per_point=handle_bytes,
        ship_bytes_per_point_pickle=topology_bytes,
        payload_reduction=topology_bytes / handle_bytes,
        peak_rss_bytes=_peak_rss_bytes(),
        bit_identical_to_serial=True,
    )
    record = recorder.build()
    out = results_dir / "bench_scale.json"
    existing = (
        json.loads(out.read_text()) if out.exists() else {}
    )
    existing["transport"] = record
    out.write_text(json.dumps(existing, indent=2) + "\n")

    print()
    print(f"== shm transport: wan-{N_SITES}, {len(candidates)} candidates, "
          f"jobs={JOBS} ==")
    print(f"   ship bytes:    {handle_bytes} (was {topology_bytes:,})")
    print(f"   shm search:    {shm_s * 1000:8.1f} ms "
          f"({len(candidates) / shm_s:7.1f} cand/s)")
    print(f"   pickle search: {pickle_s * 1000:8.1f} ms "
          f"({len(candidates) / pickle_s:7.1f} cand/s)")
    print(f"   speedup:       {speedup:8.2f}x (bar {SPEEDUP_BAR}x)")
    print(f"   peak rss:      {record['peak_rss_bytes'] / 2**20:.0f} MiB")

    assert speedup >= SPEEDUP_BAR


def test_hierarchical_sweep_end_to_end(results_dir):
    """A capacity-style sweep completes at scale: hierarchical placement
    of Grid 5x5 over every site, then the uniform-capacity LP sweep on
    the winning placement."""
    topology = synthetic_wan(N_SITES)
    system = GridQuorumSystem(5)

    with GridRunner(jobs=JOBS) as runner:
        started = time.perf_counter()
        search = hierarchical_best_placement(topology, system, runner=runner)
        search_s = time.perf_counter() - started

    assert not search.exhaustive
    assert search.n_candidates < topology.n_nodes / 2

    levels = capacity_levels(optimal_load(system).l_opt, CAPACITY_LEVELS)
    started = time.perf_counter()
    sweep = sweep_uniform_capacities(
        search.placed, alpha_from_demand(16000), levels=levels
    )
    sweep_s = time.perf_counter() - started
    assert len(sweep.response_times) >= 1
    assert all(np.isfinite(sweep.response_times))

    recorder = BenchRecorder("scale_hierarchical_sweep")
    recorder.update(
        mode="fast" if FAST else "full",
        topology=f"synthetic-wan-{N_SITES}",
        n_sites=N_SITES,
        system="grid:5",
        jobs=JOBS,
        candidates_evaluated=search.n_candidates,
        candidate_fraction=search.n_candidates / topology.n_nodes,
        clusters=len(search.medoids),
        search_seconds=search_s,
        capacity_levels=len(levels),
        sweep_seconds=sweep_s,
        best_avg_network_delay_ms=search.avg_network_delay,
        best_response_time_ms=float(min(sweep.response_times)),
        peak_rss_bytes=_peak_rss_bytes(),
    )
    record = recorder.build()
    out = results_dir / "bench_scale.json"
    existing = json.loads(out.read_text()) if out.exists() else {}
    existing["sweep"] = record
    out.write_text(json.dumps(existing, indent=2) + "\n")

    print()
    print(f"== hierarchical sweep: grid:5 on wan-{N_SITES}, jobs={JOBS} ==")
    print(f"   candidates:    {search.n_candidates}/{topology.n_nodes} "
          f"({100 * record['candidate_fraction']:.1f}%)")
    print(f"   search:        {search_s:8.2f} s")
    print(f"   sweep:         {sweep_s:8.2f} s ({len(levels)} levels)")
    print(f"   best delay:    {search.avg_network_delay:8.1f} ms")
    print(f"   best response: {record['best_response_time_ms']:8.1f} ms")


def test_bench_json_is_machine_readable(results_dir):
    out = results_dir / "bench_scale.json"
    if not out.exists():
        pytest.skip("scale benchmark has not run in this session")
    record = json.loads(out.read_text())
    assert "transport" in record
    transport = record["transport"]
    for field in (
        "n_sites",
        "jobs",
        "speedup",
        "ship_bytes_per_point",
        "payload_reduction",
        "peak_rss_bytes",
        "bit_identical_to_serial",
    ):
        assert field in transport
    assert transport["ship_bytes_per_point"] < 4096
    assert transport["bit_identical_to_serial"] is True
    if "sweep" in record:
        assert record["sweep"]["candidate_fraction"] < 0.5
