"""The repo benchmark: Q/U simulation and placement-planning workloads.

Runs one workload (or ``all``) as a closed loop with a single caller:
workload passes back to back in one process (``jobs=1``, no result
cache), for at least ``--seconds`` seconds. Every pass's outputs are
checked, against the committed reference where it applies and against
invariants elsewhere.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics (see
``layers.py``). The last line of standard output is one JSON object;
the lines before it print every metric with its unit and sample count.

Usage::

    python3 perfbench/run.py --workload qu-private --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --trace 1
    python3 perfbench/run.py --workload o2o-sweep --record o2o.json

The exit code is 0 when every work unit passed its check, 1 when one
failed, and 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference.json"

#: Fresh-process set-ups timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3

#: One process, one thread: numpy's BLAS starts no thread pool.
SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "work_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer self-time metric -> the layer it reads (see layers.py).
SELF_TIME_METRICS = {
    "qu.handler_s": "qu.handler",
    "sim.engine_s": "sim.engine",
    "sim.network_s": "sim.network",
    "lp.solve_s": "lp.solve",
    "lp.solve_many_s": "lp.solve_many",
    "lp.update_s": "lp.update",
    "lp.build_s": "lp.build",
    "placement.search_s": "placement.search",
    "placement.fractional_s": "placement.fractional",
    "placement.m2o_s": "placement.m2o",
    "placement.round_s": "placement.round",
    "strategies.sweep_s": "strategies.sweep",
    "strategies.program_s": "strategies.program",
    "core.evaluate_s": "core.evaluate",
    "core.iterative_s": "core.iterative",
}

#: Deterministic counts of one traced pass.
COUNT_METRICS = (
    "sim.events",
    "qu.ops",
    "qu.retries",
    "qu.requests",
    "lp.solve",
    "lp.calibration",
    "lp.update",
    "lp.warm_start_hit",
    "fractional.assemble",
    "strategy.assemble",
    "placement.candidates",
    "core.evaluate",
)

PER_LAYER_UNITS = {
    **{name: "s" for name in SELF_TIME_METRICS},
    **{name: "count" for name in COUNT_METRICS},
    "unattributed_s": "s",
    "pass_s": "s",
    "network.load_s": "s",
    "sim.events_per_op": "ratio",
    "qu.retry_share": "ratio",
    "lp.calibration_share": "ratio",
    "lp.warm_hit_ratio": "ratio",
    "trace.overhead": "ratio",
}

#: Counters the program's own ``repro.obs`` tracer emits.
TRACER_COUNTERS = (
    "lp.solve",
    "lp.calibration",
    "lp.update",
    "lp.warm_start_hit",
    "fractional.assemble",
    "strategy.assemble",
)

#: What a throughput unit is, per workload kind, for the printed table.
WORK_NAMES = {True: "qu_ops_per_s", False: "plans_per_s"}


# ---------------------------------------------------------------------------
# Small helpers
# ---------------------------------------------------------------------------


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def thread_count() -> int:
    """Threads of this process now (native ones included, on Linux)."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import threading

    return threading.active_count()


def peak_rss_mb() -> float:
    import resource

    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def highest_supported_percentile(n: int) -> int | None:
    """Highest whole percentile with at least ten samples beyond it,
    if that is above the median."""
    if n <= 20:
        return None
    return int(100 * (n - 10) / n)


def percentile(values: list[float], pct: int) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(len(ordered) * pct / 100))]


def _close(actual: Any, expected: Any, rtol: float) -> bool:
    if isinstance(actual, list) and isinstance(expected, list):
        return len(actual) == len(expected) and all(
            _close(a, e, rtol) for a, e in zip(actual, expected)
        )
    if rtol and isinstance(actual, float) and isinstance(expected, float):
        return abs(actual - expected) <= rtol * max(abs(actual), abs(expected))
    return bool(actual == expected)


def diff_unit(
    actual: dict[str, Any], expected: dict[str, Any], lp_keys: frozenset[str]
) -> list[str]:
    """Differences of one unit's outputs from its reference."""
    problems = []
    for key in sorted(set(actual) | set(expected)):
        if key not in actual or key not in expected:
            problems.append(f"{key}: present on one side only")
        elif not _close(actual[key], expected[key], 1e-9 if key in lp_keys else 0.0):
            problems.append(
                f"{key}: {actual[key]!r} != reference {expected[key]!r}"
            )
    return problems


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


def timed_pass(workload: Any, topology: Any, seed: int) -> tuple[float, Any]:
    start = time.perf_counter()
    result = workload.run_pass(topology, seed)
    return time.perf_counter() - start, result


def traced_pass(
    workload: Any, topology: Any, seed: int
) -> tuple[float, Any, dict[str, int], dict[str, int]]:
    """One pass under the layer clock and the program's tracer.

    Returns ``(wall_s, result, self_ns by layer, deterministic counts)``.
    """
    from layers import LayerClock
    from repro.obs import Tracer, tracing

    clock = LayerClock()
    tracer = Tracer()
    with clock, tracing(tracer):
        wall, result = timed_pass(workload, topology, seed)
    events, counters = tracer.export()
    counts = {name: 0 for name in COUNT_METRICS}
    counts.update(result.counts)
    for name in TRACER_COUNTERS:
        counts[name] = counters.get(name, 0)
    counts["placement.candidates"] = sum(
        int(e["attrs"].get("candidates", 0))
        for e in events
        if e["name"] == "placement.search"
    )
    counts["core.evaluate"] = clock.calls.get("core.evaluate", 0)
    return wall, result, dict(clock.self_ns), counts


def measure_setup(workload_name: str) -> list[float]:
    """Seconds from spawning a fresh process to its workload being ready."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload_name],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            assert proc.stdout is not None
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        finally:
            returncode = proc.wait(timeout=120)
            if proc.stdout is not None:
                proc.stdout.close()
        if returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with code {returncode}")
        samples.append(elapsed)
    return samples


class Checker:
    """Checks each pass of one run.

    Every pass must reproduce the run's first pass exactly (traced passes
    included, so traced outputs equal untraced ones). Where the committed
    reference applies — LP workloads at any seed, Q/U workloads at the
    reference seed, same LP backend — outputs must also match it: exactly,
    or within 1e-9 relative for LP-derived values. Elsewhere the
    workload's invariants must hold.
    """

    def __init__(self, workload: Any, seed: int, backend: str) -> None:
        self.workload = workload
        self.expected: dict[str, Any] | None = None
        self.expected_counts: dict[str, int] | None = None
        self.note = "invariants (no reference for this seed)"
        self._first: Any = None
        self._first_counts: dict[str, int] | None = None
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
        entry = reference["workloads"].get(workload.name)
        if entry is None:
            self.note = "invariants (no reference for this workload)"
        elif workload.seeded and seed != reference["seed"]:
            pass
        elif reference["lp_backend"] != backend:
            self.note = (
                f"invariants (reference made with LP backend "
                f"{reference['lp_backend']!r}, this run uses {backend!r}: "
                f"refusing to compare)"
            )
        else:
            self.expected = entry["outputs"]
            self.expected_counts = entry["counts"]
            self.note = "reference outputs"

    def check(
        self, result: Any, counts: dict[str, int] | None = None
    ) -> dict[str, str]:
        """Failed units of one pass, with the reason for each."""
        failures = dict(result.errors)
        if self._first is None:
            self._first = result
        for unit, outputs in result.outputs.items():
            problems = []
            if outputs != self._first.outputs.get(unit):
                problems.append("differs from the run's first pass")
            if self.expected is None:
                problems += self.workload.invariants(outputs)
            elif unit not in self.expected:
                problems.append("unit missing from the reference")
            else:
                problems += diff_unit(
                    outputs, self.expected[unit], self.workload.lp_keys
                )
            if problems:
                failures[unit] = "; ".join(problems)
        if self.expected is not None:
            for unit in set(self.expected) - set(result.outputs):
                failures.setdefault(unit, "unit missing from the pass")
        if result.counts != self._first.counts:
            for unit in result.outputs:
                failures.setdefault(unit, "counts differ from the first pass")
        if counts is not None:
            if self._first_counts is None:
                self._first_counts = counts
            elif counts != self._first_counts:
                for unit in result.outputs:
                    failures.setdefault(
                        unit, "traced counts differ from the first traced pass"
                    )
        return failures


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------


def run_workload(args: argparse.Namespace) -> int:
    from repro.lp.batched import lp_backend_name
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    backend = lp_backend_name()
    peak_threads = thread_count()
    samples: dict[str, int] = {}
    metrics: dict[str, float] = {}

    if not args.trace:
        setup = measure_setup(workload.name)
        metrics["setup_s"] = statistics.median(setup)
        samples["setup_s"] = len(setup)

    start = time.perf_counter()
    topology = workload.setup()
    load_s = time.perf_counter() - start
    checker = Checker(workload, args.seed, backend)

    attempted = failed = 0
    failures: dict[str, str] = {}
    walls: list[float] = []
    rates: list[float] = []
    traced_walls: list[float] = []
    self_times: list[dict[str, int]] = []
    counts: dict[str, int] = {}

    def account(result: Any, found: dict[str, str]) -> None:
        nonlocal attempted, failed
        attempted += result.units
        failed += len(found)
        failures.update(found)

    start = time.perf_counter()
    while True:
        wall, result = timed_pass(workload, topology, args.seed)
        account(result, checker.check(result))
        walls.append(wall)
        rates.append(result.work / wall)
        if args.trace:
            wall, result, self_ns, counts = traced_pass(
                workload, topology, args.seed
            )
            account(result, checker.check(result, counts))
            traced_walls.append(wall)
            self_times.append(self_ns)
        peak_threads = max(peak_threads, thread_count())
        if time.perf_counter() - start >= args.seconds:
            break

    if args.trace:
        metrics.update(
            per_layer_metrics(traced_walls, walls, self_times, counts, load_s)
        )
        units = PER_LAYER_UNITS
        for name in metrics:
            samples[name] = len(traced_walls)
        samples["network.load_s"] = 1
    else:
        metrics["wall_s"] = statistics.median(walls)
        metrics["work_per_s"] = statistics.median(rates)
        metrics["peak_rss_mb"] = peak_rss_mb()
        units = END_TO_END_UNITS
        samples["wall_s"] = samples["work_per_s"] = len(walls)
        samples["peak_rss_mb"] = 1

    correct = failed == 0
    print(
        f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
        f"passes {len(walls)}  lp_backend {backend}  nproc {nproc()}  "
        f"peak_threads {peak_threads}  check: {checker.note}"
    )
    for name, value in metrics.items():
        label = name
        if name == "work_per_s":
            label = f"work_per_s ({WORK_NAMES[workload.seeded]})"
        print(f"  {label:<34} {value:>14.6g} {units[name]:<6} n={samples[name]}")
    if not args.trace:
        pct = highest_supported_percentile(len(walls))
        if pct is None:
            print(
                f"  {'wall_s p(max supported)':<34} {'-':>14} {'s':<6} "
                f"n={len(walls)} (needs > 20 passes for a percentile "
                "above the median)"
            )
        else:
            print(
                f"  {'wall_s p' + str(pct):<34} "
                f"{percentile(walls, pct):>14.6g} {'s':<6} n={len(walls)}"
            )
    print(f"  pass walls (s): {' '.join(f'{w:.4f}' for w in walls)}")
    if traced_walls:
        print(f"  traced pass walls (s): {' '.join(f'{w:.4f}' for w in traced_walls)}")
    print(
        f"  {'failed_share':<34} {ratio(failed, attempted):>14.6g} "
        f"{'ratio':<6} n={attempted}"
    )
    for unit, reason in sorted(failures.items()):
        print(f"  FAILED {unit}: {reason}")
    if args.trace:
        print_rollup(traced_walls, self_times)
        if checker.expected_counts is not None and counts != checker.expected_counts:
            changed = {
                name: (checker.expected_counts.get(name), counts.get(name))
                for name in sorted(set(counts) | set(checker.expected_counts))
                if counts.get(name) != checker.expected_counts.get(name)
            }
            print(f"  note: counts differ from the reference (was, now): {changed}")

    if args.record:
        write_record(
            args.record,
            args,
            workload,
            peak_threads=peak_threads,
            attempted=attempted,
            failed=failed,
            metrics={
                name: {"value": v, "unit": units[name], "samples": samples[name]}
                for name, v in metrics.items()
            },
            counts=counts,
            package_shares=(
                package_shares(traced_walls, self_times) if args.trace else {}
            ),
        )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


def per_layer_metrics(
    traced_walls: list[float],
    walls: list[float],
    self_times: list[dict[str, int]],
    counts: dict[str, int],
    load_s: float,
) -> dict[str, float]:
    """Per-layer metrics: medians over traced passes, counts of one pass."""
    metrics: dict[str, float] = {}
    for name, layer in SELF_TIME_METRICS.items():
        metrics[name] = statistics.median(s.get(layer, 0) for s in self_times) / 1e9
    metrics["unattributed_s"] = statistics.median(
        wall - sum(s.values()) / 1e9 for wall, s in zip(traced_walls, self_times)
    )
    metrics["pass_s"] = statistics.median(traced_walls)
    for name in COUNT_METRICS:
        metrics[name] = counts.get(name, 0)
    metrics["sim.events_per_op"] = ratio(counts["sim.events"], counts["qu.ops"])
    metrics["qu.retry_share"] = ratio(
        counts["qu.retries"], counts["qu.ops"] + counts["qu.retries"]
    )
    metrics["lp.calibration_share"] = ratio(
        counts["lp.calibration"], counts["lp.solve"]
    )
    metrics["lp.warm_hit_ratio"] = ratio(
        counts["lp.warm_start_hit"], counts["lp.solve"]
    )
    metrics["network.load_s"] = load_s
    metrics["trace.overhead"] = statistics.median(traced_walls) / statistics.median(walls)
    return metrics


def package_shares(
    traced_walls: list[float], self_times: list[dict[str, int]]
) -> dict[str, float]:
    """Share of the traced pass spent in each package's own code."""
    totals: dict[str, float] = {}
    for self_ns in self_times:
        for layer, ns in self_ns.items():
            package = layer.split(".")[0]
            totals[package] = totals.get(package, 0.0) + ns / 1e9
    wall = sum(traced_walls)
    shares = {package: t / wall for package, t in sorted(totals.items())}
    shares["unattributed"] = 1.0 - sum(shares.values())
    return shares


def print_rollup(
    traced_walls: list[float], self_times: list[dict[str, int]]
) -> None:
    shares = package_shares(traced_walls, self_times)
    print("  self-time share of the traced pass, by package:")
    for package, share in shares.items():
        print(f"    {package:<14} {100 * share:6.1f}%")


def write_record(
    path: str,
    args: argparse.Namespace,
    workload: Any,
    counts: dict[str, int],
    **fields: Any,
) -> None:
    """The full record, in the shared ``BenchRecorder`` envelope."""
    from repro.obs.bench import BenchRecorder

    recorder = BenchRecorder(f"perfbench-{workload.name}")
    recorder.update(
        workload=workload.name,
        seed=args.seed,
        seed_used=workload.seeded,
        seconds=args.seconds,
        trace=args.trace,
        nproc=nproc(),
        **fields,
    )
    recorder.write(Path.cwd(), path, counters=counts or None)


# ---------------------------------------------------------------------------
# All workloads
# ---------------------------------------------------------------------------


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own fresh process; one summary line at the end."""
    from workloads import WORKLOADS

    summary: dict[str, Any] = {}
    attempted = failed = 0
    correct = True
    for name in WORKLOADS:
        proc = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            stdout=subprocess.PIPE,
            text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"workload {name} printed no result", file=sys.stderr)
            return 2
        summary[name] = result["metrics"]
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"] and proc.returncode == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "workloads": summary,
            }
        )
    )
    return 0 if correct else 1


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record",
        help="also write the full record (provenance, samples, counts) "
        "to this file",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload == "all" and args.record:
        parser.error("--record takes one workload")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"error: library sources not found under {SRC.name}/repro; "
            "run from a full checkout",
            file=sys.stderr,
        )
        return 2
    for name, value in SINGLE_THREAD_ENV.items():
        os.environ.setdefault(name, value)
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; choose from "
            f"{sorted(WORKLOADS)} or 'all'",
            file=sys.stderr,
        )
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
