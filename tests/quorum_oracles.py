"""Brute-force per-quorum loops: the test oracles of the quorum structure.

Each function walks ``system.quorums`` quorum by quorum, element by
element, the way the library computed these quantities before it gathered
through :attr:`~repro.quorums.base.QuorumSystem.member_index`. Tests pin
the vectorized library paths ``np.array_equal`` to them.
"""

from __future__ import annotations

import numpy as np


def membership_counts_loop(system) -> list[int]:
    """For each element, the number of quorums containing it."""
    counts = [0] * system.universe_size
    for quorum in system.quorums:
        for u in quorum:
            counts[u] += 1
    return counts


def element_loads_loop(system, p: np.ndarray) -> np.ndarray:
    """``load_p(u) = sum_{Q_i ni u} p_i``, added quorum by quorum."""
    loads = np.zeros(system.universe_size)
    for i, quorum in enumerate(system.quorums):
        for u in quorum:
            loads[u] += p[i]
    return loads


def incidence_counts_loop(system, assignment, n_nodes: int) -> np.ndarray:
    """``A[i, w]`` = number of elements of ``Q_i`` placed on node ``w``."""
    a = np.zeros((system.num_quorums, n_nodes))
    for i, quorum in enumerate(system.quorums):
        for u in quorum:
            a[i, assignment[u]] += 1.0
    return a


def incidence_indicator_loop(system, assignment, n_nodes: int) -> np.ndarray:
    """``A[i, w] = 1`` when some element of ``Q_i`` is placed on ``w``."""
    a = np.zeros((system.num_quorums, n_nodes))
    for i, quorum in enumerate(system.quorums):
        for u in quorum:
            a[i, assignment[u]] = 1.0
    return a


def max_over_quorums_loop(system, assignment, values: np.ndarray) -> np.ndarray:
    """``out[v, i] = max_{w in f(Q_i)} values[v, w]``, one quorum at a time."""
    out = np.empty((values.shape[0], system.num_quorums))
    for i, quorum in enumerate(system.quorums):
        nodes = np.unique([assignment[u] for u in quorum])
        out[:, i] = values[:, nodes].max(axis=1)
    return out
