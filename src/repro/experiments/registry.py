"""Registry mapping figure ids to runners.

Every runner declares its parameter grid as data
(:class:`~repro.runtime.grid.GridSpec`), so :func:`run_figure` can
schedule points through a shared :class:`~repro.runtime.runner.GridRunner`
— serial, parallel (``jobs``), and/or content-cached (``cache``).
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ReproError
from repro.experiments import (
    fig_3_1,
    fig_3_2,
    fig_6_3,
    fig_6_4,
    fig_6_5,
    fig_7_6,
    fig_7_7,
    fig_7_8,
    fig_8_9,
    fig_closed_loop,
    fig_dyn,
    fig_scale,
    fig_throughput,
)
from repro.experiments.series import FigureResult
from repro.obs import tracer as obs
from repro.runtime.cache import ResultCache
from repro.runtime.runner import GridRunner

__all__ = ["FIGURES", "run_figure"]

FIGURES: dict[str, Callable[..., FigureResult]] = {
    "fig_3_1": fig_3_1.run,
    "fig_3_2a": fig_3_2.run_a,
    "fig_3_2b": fig_3_2.run_b,
    "fig_6_3": fig_6_3.run,
    "fig_6_4": fig_6_4.run,
    "fig_6_5": fig_6_5.run,
    "fig_7_6": fig_7_6.run,
    "fig_7_7": fig_7_7.run,
    "fig_7_8": fig_7_8.run,
    "fig_8_9": fig_8_9.run,
    "fig_closed_loop": fig_closed_loop.run,
    "fig_dyn": fig_dyn.run,
    "fig_scale": fig_scale.run,
    "fig_throughput": fig_throughput.run,
}


def run_figure(
    figure_id: str,
    fast: bool = False,
    jobs: int | None = 1,
    cache: ResultCache | None = None,
    **kwargs,
) -> FigureResult:
    """Run one figure's experiment by id (e.g. ``"fig_6_3"``).

    ``jobs`` fans the figure's grid points out over worker processes
    (``None``/``0`` = all cores); ``cache`` reuses previously computed
    points keyed by content hash. Results are identical regardless of
    either setting. The runner created here is the figure's *only*
    process pool — inner candidate searches (e.g. ``fig_8_9``'s) run
    serially inside its workers — and is shut down when the figure
    completes.
    """
    try:
        runner_fn = FIGURES[figure_id]
    except KeyError:
        raise ReproError(
            f"unknown figure {figure_id!r}; available: {sorted(FIGURES)}"
        ) from None
    before = cache.stats() if cache is not None else None
    with obs.span("figure", figure_id=figure_id, fast=fast):
        with GridRunner(jobs=jobs, cache=cache) as runner:
            result = runner_fn(fast=fast, runner=runner, **kwargs)
    if cache is not None and before is not None:
        after = cache.stats()
        # This run's cache effectiveness — a delta, so a cache shared
        # across figures reports only what this figure contributed.
        result.metadata["cache"] = {
            name: after[name] - before[name] for name in after
        }
    return result
