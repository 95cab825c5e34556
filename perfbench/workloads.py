"""The benchmark's four workloads.

Each workload is one *pass*: a fixed piece of user-visible work run
through the library's public entry points, split into named work units
(Q/U simulation cells or placement plans). A pass returns its outputs
per unit, so ``run.py`` can check them, and the counts of work it did.

Only the Q/U workloads use the seed: it reaches the generated
``QUExperimentConfig`` / ``QUService`` seeds and nothing else. The LP
workloads plan over fixed datasets, so for them the seed is recorded
and unused.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

#: Default seed. At seed 0 the ``qu-private`` cells use exactly the
#: seeds of Figure 3.1's full-mode repetition 0.
DEFAULT_SEED = 0

#: Simulated length and warm-up of every Q/U cell (Figure 3.1 full mode).
QU_DURATION_MS = 2500.0
QU_WARMUP_MS = 500.0

#: Relative tolerance for LP objectives and quantities derived from them.
LP_RTOL = 1e-9


def cell_seed(seed: int, t: int, clients_per_site: int) -> int:
    """The Q/U config seed of one cell; seed 0 gives Figure 3.1's seeds."""
    return seed * 100_000 + 1000 * t + 10 * clients_per_site


@dataclass
class PassResult:
    """What one pass produced.

    ``outputs`` maps unit id to that unit's JSON-able outputs; a unit
    that raised has no entry and is listed in ``errors`` instead.
    ``work`` is what the throughput metric counts: completed Q/U client
    operations, or completed plans.
    """

    units: int
    outputs: dict[str, dict[str, Any]] = field(default_factory=dict)
    errors: dict[str, str] = field(default_factory=dict)
    work: int = 0
    counts: dict[str, int] = field(default_factory=dict)

    def add_counts(self, **counts: int) -> None:
        for name, n in counts.items():
            self.counts[name] = self.counts.get(name, 0) + int(n)


@contextmanager
def captured_services() -> Iterator[list[Any]]:
    """Collect every ``QUService`` that runs inside the block.

    ``run_qu_experiment`` returns summary statistics only; the service
    it ran holds the raw counts (completed operations, retries, requests
    served, events processed) that the throughput metric and the
    deterministic counters need.
    """
    from repro.qu.service import QUService

    services: list[Any] = []
    original = QUService.run

    def run(self: Any, *args: Any, **kwargs: Any) -> None:
        services.append(self)
        original(self, *args, **kwargs)

    QUService.run = run  # type: ignore[method-assign]
    try:
        yield services
    finally:
        QUService.run = original  # type: ignore[method-assign]


def _service_counts(service: Any) -> dict[str, int]:
    return {
        "qu.ops": sum(len(c.records) for c in service.clients),
        "qu.retries": sum(c.retries_total for c in service.clients),
        "qu.requests": sum(s.requests_processed for s in service.servers),
        "sim.events": service.sim.events_processed,
    }


def _qu_cell_outputs(stats: Any, counts: dict[str, int]) -> dict[str, Any]:
    """A cell's checked outputs: its statistics and its protocol counts.

    ``sim.events`` is left out on purpose: an engine change may schedule
    fewer events for the same protocol behaviour.
    """
    return {
        "mean_response_ms": stats.mean_response_ms,
        "mean_network_delay_ms": stats.mean_network_delay_ms,
        "operations": int(stats.n_operations),
        **{k: v for k, v in counts.items() if k.startswith("qu.")},
    }


def _run_units(
    result: PassResult,
    units: list[tuple[str, Callable[[], dict[str, Any]]]],
) -> None:
    """Run each unit; a unit that raises is recorded, not fatal."""
    for unit_id, fn in units:
        try:
            result.outputs[unit_id] = fn()
        except Exception as exc:  # noqa: BLE001 - a failed unit is a result
            result.errors[unit_id] = f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """One benchmark workload: its dataset, modules, and pass."""

    name: str = ""
    dataset: str = ""
    #: Modules a fresh process imports before it can run this workload.
    modules: tuple[str, ...] = ()
    #: Whether the seed reaches the workload's inputs.
    seeded: bool = False
    #: Output keys compared with tolerance ``LP_RTOL``; others exactly.
    lp_keys: frozenset[str] = frozenset()

    def setup(self) -> Any:
        """Load the dataset (everything the pass needs from set-up)."""
        from repro.network import datasets

        return datasets.load_topology(self.dataset)

    def run_pass(self, topology: Any, seed: int) -> PassResult:
        raise NotImplementedError

    def invariants(self, unit: dict[str, Any]) -> list[str]:
        """Checks that hold at any seed (used where no reference applies)."""
        return []


class QUWorkload(Workload):
    """Q/U simulation cells on planetlab-50; the seed reaches the cells."""

    dataset = "planetlab-50"
    modules = ("repro.sim.experiment",)
    seeded = True

    def invariants(self, unit: dict[str, Any]) -> list[str]:
        problems = []
        if not unit["mean_response_ms"] >= unit["mean_network_delay_ms"]:
            problems.append("mean response below mean network delay")
        attempts = unit["qu.ops"] + unit["qu.retries"]
        if unit["qu.ops"] <= 0:
            problems.append("no operation completed")
        elif not 0 <= unit["qu.retries"] / attempts < 1:
            problems.append("retry share outside [0, 1)")
        return problems


class QUPrivate(QUWorkload):
    """Fig. 3.1 cells with private objects: the paper's own simulation,
    nearly all ``qu`` + ``sim`` time and no LP."""

    name = "qu-private"
    cells = tuple((t, c) for t in (1, 3, 5) for c in (2, 10))

    def run_pass(self, topology: Any, seed: int) -> PassResult:
        from repro.sim.experiment import QUExperimentConfig, run_qu_experiment

        result = PassResult(units=len(self.cells))

        def cell(t: int, c: int) -> dict[str, Any]:
            config = QUExperimentConfig(
                t=t,
                clients_per_site=c,
                duration_ms=QU_DURATION_MS,
                warmup_ms=QU_WARMUP_MS,
                seed=cell_seed(seed, t, c),
            )
            with captured_services() as services:
                run = run_qu_experiment(topology, config)
            (service,) = services
            counts = _service_counts(service)
            result.work += counts["qu.ops"]
            result.add_counts(**counts)
            return _qu_cell_outputs(run.stats, counts)

        _run_units(
            result,
            [
                (f"t={t},c={c}", lambda t=t, c=c: cell(t, c))
                for t, c in self.cells
            ],
        )
        return result


class QUContended(QUWorkload):
    """Five writers per object at different sites: the same layers as
    ``qu-private`` on the contended classify, re-condition and backoff
    path, with longer replica histories."""

    name = "qu-contended"
    t_values = (1, 3)
    clients_per_site = 5
    n_objects = 10

    def run_pass(self, topology: Any, seed: int) -> PassResult:
        from repro.placement.search import best_placement
        from repro.qu.service import QUService
        from repro.quorums.threshold import MajorityKind, majority
        from repro.sim.experiment import select_client_sites
        from repro.sim.metrics import summarize

        result = PassResult(units=len(self.t_values))

        def cell(t: int) -> dict[str, Any]:
            system = majority(MajorityKind.QU, t)
            placed = best_placement(topology, system).placed
            sites = select_client_sites(topology, placed, n_sites=10)
            service = QUService(
                topology,
                placed.placement.assignment,
                quorum_size=4 * t + 1,
                seed=cell_seed(seed, t, self.clients_per_site),
            )
            for site in sites:
                for _ in range(self.clients_per_site):
                    service.add_client(
                        int(site), object_id=len(service.clients) % self.n_objects
                    )
            service.run(duration_ms=QU_DURATION_MS)
            counts = _service_counts(service)
            result.work += counts["qu.ops"]
            result.add_counts(**counts)
            stats = summarize(service.all_records(), warmup_ms=QU_WARMUP_MS)
            return _qu_cell_outputs(stats, counts)

        _run_units(
            result,
            [(f"t={t}", lambda t=t: cell(t)) for t in self.t_values],
        )
        return result


def _finite_positive(values: list[float]) -> bool:
    return all(math.isfinite(v) and v > 0 for v in values)


class M2OIterative(Workload):
    """Fig. 8.9's iterative many-to-one placement of the 5x5 Grid: mostly
    anchored LP solves, calibrations and in-place updates."""

    name = "m2o-iterative"
    dataset = "planetlab-50"
    modules = ("repro.experiments.registry",)
    lp_keys = frozenset({"netdelay"})
    capacity_steps = 6

    def run_pass(self, topology: Any, seed: int) -> PassResult:
        # run_figure loads planetlab-50 itself, as the figure CLI does.
        from repro.experiments.registry import run_figure

        plans = 1 + self.capacity_steps
        result = PassResult(units=plans)
        try:
            figure = run_figure(
                "fig_8_9",
                fast=True,
                capacity_steps=self.capacity_steps,
                jobs=1,
                cache=None,
            )
        except Exception as exc:  # noqa: BLE001 - a failed pass is a result
            for plan in range(plans):
                result.errors[f"plan{plan}"] = f"{type(exc).__name__}: {exc}"
            return result
        series = {s.label: s for s in figure.series}
        first = series["netdelay 1st iteration"]
        second = series["netdelay 2nd iteration"]
        baseline = series["netdelay one-to-one"]
        result.outputs["one-to-one"] = {"netdelay": [float(baseline.y[0])]}
        for x, y1, y2 in zip(first.x, first.y, second.y):
            result.outputs[f"cap={float(x)!r}"] = {
                "netdelay": [float(y1), float(y2)]
            }
        result.work = len(result.outputs)
        return result

    def invariants(self, unit: dict[str, Any]) -> list[str]:
        if not _finite_positive(unit["netdelay"]):
            return ["network delay not finite and positive"]
        return []


class O2OSweep(Workload):
    """Grid k = 5, 8, 11 on daxlist-161: the analytic model (exhaustive
    search, ``evaluate``) and LP the other way, as ``solve_many`` RHS
    sweeps with no calibration and no updates."""

    name = "o2o-sweep"
    dataset = "daxlist-161"
    modules = (
        "repro.placement.search",
        "repro.strategies.capacity_sweep",
        "repro.strategies.simple",
    )
    lp_keys = frozenset({"sweep_netdelay", "sweep_response"})
    grid_sides = (5, 8, 11)
    demands = (1000, 4000, 16000)
    sweep_demand = 16000
    sweep_levels = 10

    def run_pass(self, topology: Any, seed: int) -> PassResult:
        from repro.core.response_time import alpha_from_demand, evaluate
        from repro.placement.search import best_placement
        from repro.quorums.grid import GridQuorumSystem
        from repro.quorums.load_analysis import optimal_load
        from repro.strategies.capacity_sweep import (
            capacity_levels,
            sweep_uniform_capacities,
        )
        from repro.strategies.simple import balanced_strategy, closest_strategy

        result = PassResult(units=len(self.grid_sides))

        def plan(k: int) -> dict[str, Any]:
            system = GridQuorumSystem(k)
            search = best_placement(topology, system)
            placed = search.placed
            evaluated = []
            for demand in self.demands:
                alpha = alpha_from_demand(demand)
                for factory in (closest_strategy, balanced_strategy):
                    r = evaluate(placed, factory(placed), alpha=alpha)
                    evaluated += [r.avg_response_time, r.avg_network_delay]
            levels = capacity_levels(optimal_load(system).l_opt, self.sweep_levels)
            sweep = sweep_uniform_capacities(
                placed, alpha_from_demand(self.sweep_demand), levels=levels
            )
            result.work += 1
            return {
                "v0": search.v0,
                "placement_delay": search.avg_network_delay,
                "evaluate": evaluated,
                "sweep_capacities": [float(c) for c in sweep.capacities],
                "sweep_netdelay": [float(d) for d in sweep.network_delays],
                "sweep_response": [float(r) for r in sweep.response_times],
                "sweep_infeasible": list(sweep.infeasible_capacities),
            }

        _run_units(
            result,
            [(f"k={k}", lambda k=k: plan(k)) for k in self.grid_sides],
        )
        return result

    def invariants(self, unit: dict[str, Any]) -> list[str]:
        values = (
            [unit["placement_delay"]]
            + unit["evaluate"]
            + unit["sweep_netdelay"]
            + unit["sweep_response"]
        )
        if not _finite_positive(values):
            return ["a delay is not finite and positive"]
        if not unit["sweep_netdelay"]:
            return ["no capacity level was feasible"]
        return []


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (QUPrivate(), QUContended(), M2OIterative(), O2OSweep())
}
