"""Fault tolerance of placed quorum systems. (Extension beyond the paper.)

The paper's motivation for one-to-one placements is that they "preserve the
fault-tolerance of the original quorum system" (Section 4.1); this module
quantifies that. For a placed system, :func:`min_nodes_to_disable` computes
the smallest number of *node* crashes that kill every quorum (some element of
each quorum unavailable) — co-located elements fail together, so many-to-one
placements can be disabled with fewer node failures. The crash tolerance is
that number minus one.

Exact algorithms:

* threshold systems — crash ``n - q + 1`` elements to block all quorums;
  with co-location, greedily crashing the nodes hosting the most elements is
  optimal (exchange argument: any kill set can swap a node for one hosting
  at least as many elements without losing coverage).
* grid systems — all quorums die iff every row is broken or every column is
  broken; breaking all rows (columns) is a minimum set cover of rows
  (columns) by nodes, solved exactly by branch-and-bound (k <= 12 in all our
  experiments).
* enumerable systems generally — minimum hitting set over placed quorums by
  branch-and-bound, feasible for the small systems where it is needed.
"""

from __future__ import annotations

import numpy as np

from repro.core.placement import PlacedQuorumSystem
from repro.errors import QuorumSystemError
from repro.quorums.grid import RectangularGridQuorumSystem
from repro.quorums.threshold import ThresholdQuorumSystem

__all__ = ["min_nodes_to_disable", "crash_tolerance"]


def _threshold_kill_count(placed: PlacedQuorumSystem) -> int:
    system = placed.system
    # All quorums are dead iff fewer than q elements survive, i.e. at least
    # n - q + 1 elements are removed. Killing nodes with the most hosted
    # elements first is optimal (exchange argument).
    elements_to_remove = system.universe_size - system.quorum_size + 1
    multiplicities = placed.placement.multiplicities(placed.n_nodes)
    counts = np.sort(multiplicities[multiplicities > 0])[::-1]
    removed = 0
    for killed, count in enumerate(counts, start=1):
        removed += int(count)
        if removed >= elements_to_remove:
            return killed
    raise QuorumSystemError("placement does not cover the universe")


def _min_set_cover(universe_size: int, sets: list[frozenset[int]]) -> int:
    """Exact minimum set cover size by branch-and-bound.

    ``sets`` are the candidate covering sets over ``{0..universe_size-1}``.
    Returns ``universe_size + 1`` when no cover exists.
    """
    full = frozenset(range(universe_size))
    coverable = frozenset().union(*sets) if sets else frozenset()
    if not full <= coverable:
        return universe_size + 1
    # Greedy upper bound.
    uncovered = set(full)
    greedy = 0
    while uncovered:
        best = max(sets, key=lambda s: len(s & uncovered))
        gained = best & uncovered
        if not gained:
            break
        uncovered -= gained
        greedy += 1
    best_known = greedy

    max_gain = max(len(s) for s in sets)

    def branch(uncovered: frozenset[int], used: int) -> None:
        nonlocal best_known
        if not uncovered:
            best_known = min(best_known, used)
            return
        # Lower bound: each further set covers at most max_gain elements.
        if used + (len(uncovered) + max_gain - 1) // max_gain >= best_known:
            return
        target = min(uncovered)  # cover a specific element; prune symmetric work
        for s in sets:
            if target in s:
                branch(uncovered - s, used + 1)

    branch(full, 0)
    return best_known


def _grid_kill_count(placed: PlacedQuorumSystem) -> int:
    system: RectangularGridQuorumSystem = placed.system
    rows, cols = system.rows, system.cols
    assignment = placed.placement.assignment
    nodes = np.unique(assignment)
    rows_by_node: list[frozenset[int]] = []
    cols_by_node: list[frozenset[int]] = []
    for w in nodes:
        elements = np.flatnonzero(assignment == w)
        rows_by_node.append(frozenset(int(u) // cols for u in elements))
        cols_by_node.append(frozenset(int(u) % cols for u in elements))
    kill_rows = _min_set_cover(rows, rows_by_node)
    kill_cols = _min_set_cover(cols, cols_by_node)
    return min(kill_rows, kill_cols)


def _generic_kill_count(placed: PlacedQuorumSystem) -> int:
    # Minimum hitting set over placed quorums == minimum set cover where
    # each node "covers" the quorums it intersects.
    incidence = placed.incidence_counts  # (quorums, nodes)
    covers = [
        frozenset(np.flatnonzero(incidence[:, w]).tolist())
        for w in placed.placement.support_set
    ]
    return _min_set_cover(incidence.shape[0], covers)


def min_nodes_to_disable(placed: PlacedQuorumSystem) -> int:
    """Fewest node crashes that leave no quorum fully alive."""
    if isinstance(placed.system, ThresholdQuorumSystem):
        return _threshold_kill_count(placed)
    if isinstance(placed.system, RectangularGridQuorumSystem):
        return _grid_kill_count(placed)
    if not placed.system.is_enumerable:
        raise QuorumSystemError(
            f"{placed.system.name}: no exact fault-tolerance algorithm"
        )
    return _generic_kill_count(placed)


def crash_tolerance(placed: PlacedQuorumSystem) -> int:
    """Largest number of node crashes that always leaves some quorum alive."""
    return min_nodes_to_disable(placed) - 1
