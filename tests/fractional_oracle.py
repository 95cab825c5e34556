"""Row-by-row fractional-placement LP: the oracle of the batched path.

:func:`fractional_placement_loop` assembles the Section 4.1.2 LP one
constraint at a time and solves it cold — the shape of the code before
:class:`~repro.placement.fractional.FractionalProgram` existed.
``tests/test_fractional_batched.py`` pins the batched path
matrix-identical and objective-equivalent (1e-9) to it, and
``benchmarks/bench_fractional_lp.py`` measures the batched speedup
against it.
"""

from __future__ import annotations

import numpy as np

from repro.lp import LinearProgram, solve
from repro.placement.fractional import (
    FractionalPlacement,
    element_loads_of_strategy,
)


def fractional_placement_loop(
    topology,
    system,
    v0: int,
    capacities: np.ndarray | None = None,
    strategy: np.ndarray | None = None,
) -> FractionalPlacement:
    """Row-by-row reference for :func:`~repro.placement.fractional.
    fractional_placement` (same defaults: the topology's capacities and
    the uniform strategy)."""
    n = system.universe_size
    n_nodes = topology.n_nodes
    m = system.num_quorums
    caps = (
        topology.capacities
        if capacities is None
        else np.asarray(capacities, dtype=np.float64)
    )
    p = (
        np.full(m, 1.0 / m)
        if strategy is None
        else np.array(strategy, dtype=np.float64)
    )
    loads = element_loads_of_strategy(system, p)
    dist = topology.distances_from(v0)

    lp = LinearProgram()
    x = lp.add_block("x", (n, n_nodes), lower=0.0, upper=1.0)
    z = lp.add_block("z", m, lower=0.0)
    for i in range(m):
        lp.set_objective(z.index(i), float(p[i]))

    node_cols = list(range(n_nodes))
    dist_vals = dist.tolist()
    for i, quorum in enumerate(system.quorums):
        for u in quorum:
            cols = [x.index(u, w) for w in node_cols] + [z.index(i)]
            vals = dist_vals + [-1.0]
            lp.add_le(cols, vals, 0.0)
    for u in range(n):
        lp.add_eq([x.index(u, w) for w in node_cols], [1.0] * n_nodes, 1.0)
    for w in range(n_nodes):
        cols = [x.index(u, w) for u in range(n)]
        lp.add_le(cols, loads.tolist(), float(caps[w]))

    solution = solve(lp)
    return FractionalPlacement(
        v0=v0,
        x=solution.block_values(lp, "x"),
        quorum_delays=solution.block_values(lp, "z"),
        objective=solution.objective,
        element_loads=loads,
    )
