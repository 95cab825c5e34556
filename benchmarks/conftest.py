"""Benchmark harness configuration.

Every figure benchmark runs its experiment once (``benchmark.pedantic`` with
a single round — these are end-to-end experiment regenerations, not
microbenchmarks), prints the series the paper plots, and writes them to
``benchmarks/results/<figure>.txt`` so a benchmark run leaves a complete
record.

Set ``REPRO_BENCH_FULL=1`` to run the paper's full parameter grids instead
of the thinned fast grids (full grids take minutes for the simulation
figures).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"

# Test oracles (e.g. ``fractional_oracle``) live in ``tests/``; benchmarks
# that measure against them import the same copy.
sys.path.append(str(Path(__file__).parent.parent / "tests"))


def full_grids_enabled() -> bool:
    return os.environ.get("REPRO_BENCH_FULL", "") == "1"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture()
def record_figure(results_dir):
    """Returns a recorder: call with a FigureResult to print + persist it."""

    def _record(result):
        text = result.render_text()
        print()
        print(text)
        out = results_dir / f"{result.figure_id}.txt"
        out.write_text(text + "\n")
        return result

    return _record


@pytest.fixture()
def run_figure_benchmark(benchmark, record_figure):
    """Run a figure runner once under pytest-benchmark and record output."""

    def _run(runner, **kwargs):
        fast = not full_grids_enabled()
        result = benchmark.pedantic(
            lambda: runner(fast=fast, **kwargs), rounds=1, iterations=1
        )
        return record_figure(result)

    return _run
