"""Best-``v0`` search for one-to-one placements.

The single-client constructions of Gupta et al. are optimal only for their
designated client. The paper's recipe for the general case (Section 4.1.1):
"run the single-client placement algorithm using each node v as v0, compute
the average network delay from all clients for each such placement, and pick
the placement that has the smallest average delay" — which is within a small
constant factor of optimal. The evaluation strategy is the uniform one, the
assumption under which the single-client constructions are optimal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.core.placement import PlacedQuorumSystem, Placement
from repro.core.response_time import average_network_delay
from repro.core.strategy import (
    AccessStrategy,
    ExplicitStrategy,
    ThresholdBalancedStrategy,
)
from repro.errors import PlacementError
from repro.network.graph import Topology
from repro.obs import tracer as obs
from repro.placement.one_to_one import one_to_one_placement
from repro.quorums.base import QuorumSystem
from repro.quorums.threshold import ThresholdQuorumSystem
from repro.runtime.grid import GridPoint
from repro.runtime.runner import GridRunner
from repro.runtime.shm import resolve_topology

__all__ = ["PlacementSearchResult", "best_placement", "uniform_strategy_for"]


def uniform_strategy_for(placed: PlacedQuorumSystem) -> AccessStrategy:
    """The balanced strategy in whichever representation fits the system."""
    if placed.is_threshold and not placed.system.is_enumerable:
        return ThresholdBalancedStrategy()
    if placed.is_threshold:
        # Enumerable thresholds still use the exact implicit evaluation;
        # it is dramatically cheaper than materializing C(n, q) quorums.
        return ThresholdBalancedStrategy()
    return ExplicitStrategy.uniform(placed)


@dataclass(frozen=True)
class PlacementSearchResult:
    """Outcome of the best-``v0`` search.

    ``delays_by_candidate`` maps each attempted ``v0`` to the average
    network delay of its placement (useful for studying placement
    sensitivity).
    """

    placed: PlacedQuorumSystem
    v0: int
    avg_network_delay: float
    delays_by_candidate: dict[int, float]


def _candidate_delay(
    topology: object,
    system: QuorumSystem,
    v0: int,
    clients: object,
    respect_capacities: bool,
) -> float | None:
    """Average network delay of ``v0``'s placement, or None if infeasible.

    Module-level so the best-``v0`` search can fan candidates out over a
    process pool. ``topology`` may be a
    :class:`~repro.runtime.shm.TopologyHandle`: parallel dispatch ships
    the shared-memory handle instead of pickling the delay matrix per
    candidate, and workers rehydrate a zero-copy view once per topology.
    """
    topology = resolve_topology(topology)
    try:
        placement = one_to_one_placement(
            topology, system, v0, respect_capacities=respect_capacities
        )
    except PlacementError:
        return None  # e.g. not enough capacity-eligible nodes near v0
    placed = PlacedQuorumSystem(system, placement, topology)
    strategy = uniform_strategy_for(placed)
    return average_network_delay(placed, strategy, clients=clients)


def best_placement(
    topology: Topology,
    system: QuorumSystem,
    candidates: object = None,
    clients: object = None,
    respect_capacities: bool = True,
    runner: GridRunner | None = None,
) -> PlacementSearchResult:
    """Best one-to-one placement over candidate designated clients.

    Parameters
    ----------
    topology, system:
        The network and the quorum system to place.
    candidates:
        Candidate ``v0`` nodes (default: every node, the paper's recipe).
    clients:
        Client set whose average network delay selects the winner
        (default: every node).
    respect_capacities:
        Whether hosting nodes must have ``cap(v) >= load_f(u)``.
    runner:
        The caller's :class:`~repro.runtime.runner.GridRunner` to schedule
        the candidate loop through (its worker pool is reused; inside one
        of its workers the loop runs inline); ``None`` runs it serially.
        Candidates are independent, so the result is identical for any
        worker count: the reduction scans delays in candidate order,
        keeping the serial tie-break (first candidate with the minimal
        delay wins). A candidate evaluation that raises (beyond the expected
        infeasibility, which is handled in-loop) surfaces as a
        :class:`~repro.errors.ReproError` naming the failed candidate;
        the batch's still-queued work is cancelled (in-flight points
        finish but are not returned).
    """
    if candidates is None:
        candidate_idx = np.arange(topology.n_nodes)
    else:
        candidate_idx = np.asarray(candidates, dtype=np.intp)
    if candidate_idx.size == 0:
        raise PlacementError("candidate set must be non-empty")

    v0_list = [int(v0) for v0 in candidate_idx]

    def _points(ship: object) -> list[GridPoint]:
        # ``ship`` is what actually crosses the process boundary: the
        # topology itself on inline paths, a shared-memory handle when the
        # runner dispatches to workers (so no point pickles the delay
        # matrix). Tags carry (position, v0): the position keeps duplicate
        # candidates legal under the unique-tag rule, the v0 makes a
        # failed evaluation's ReproError name the actual candidate.
        evaluate_one = partial(
            _candidate_delay,
            ship,
            system,
            clients=clients,
            respect_capacities=respect_capacities,
        )
        return [
            GridPoint(tag=(i, v0), fn=evaluate_one, kwargs={"v0": v0})
            for i, v0 in enumerate(v0_list)
        ]

    if runner is None:
        runner = GridRunner()
    with obs.span("placement.search", candidates=len(v0_list)):
        results = runner.run(_points(runner.ship(topology)))
    candidate_delays = [
        results[(i, v0)] for i, v0 in enumerate(v0_list)
    ]

    best_v0 = -1
    best_delay = np.inf
    delays: dict[int, float] = {}
    for v0, delay in zip(v0_list, candidate_delays):
        if delay is None:
            continue
        delays[v0] = delay
        if delay < best_delay:
            best_v0, best_delay = v0, delay
    if best_v0 < 0:
        raise PlacementError(
            "no candidate admitted a valid one-to-one placement"
        )
    best_placed = PlacedQuorumSystem(
        system,
        one_to_one_placement(
            topology, system, best_v0, respect_capacities=respect_capacities
        ),
        topology,
    )
    return PlacementSearchResult(
        placed=best_placed,
        v0=best_v0,
        avg_network_delay=best_delay,
        delays_by_candidate=delays,
    )
