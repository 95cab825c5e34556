"""Load computations (Section 4, "Load").

For a client ``v`` with access strategy ``p_v``:

* element load: ``load_v(u) = sum_{Q ni u} p_v(Q)``;
* node load under placement ``f``:
  ``load_{v,f}(w) = sum_{u : f(u) = w} load_v(u)``;
* system node load: ``load_f(w) = avg_{v in V} load_{v,f}(w)``.

With the strategy profile as a matrix ``P`` (clients x quorums) and the
incidence matrix ``A[i, w]`` (elements of ``Q_i`` on node ``w``), node loads
are ``load_f = mean_v(P) @ A`` — a single matrix product.
"""

from __future__ import annotations

import numpy as np

from repro.core.placement import PlacedQuorumSystem
from repro.errors import StrategyError

__all__ = ["node_loads"]


def _check_strategy_matrix(placed: PlacedQuorumSystem, p: np.ndarray) -> np.ndarray:
    matrix = np.asarray(p, dtype=np.float64)
    if matrix.ndim == 1:
        matrix = matrix[None, :]
    if matrix.shape[1] != placed.num_quorums:
        raise StrategyError(
            f"strategy has {matrix.shape[1]} quorum columns, "
            f"system has {placed.num_quorums}"
        )
    return matrix


def node_loads(
    placed: PlacedQuorumSystem,
    strategy_matrix: np.ndarray,
    coalesce: bool = False,
) -> np.ndarray:
    """``load_f(w)``: node loads averaged over the client rows of ``P``."""
    matrix = _check_strategy_matrix(placed, strategy_matrix)
    a = placed.incidence_indicator if coalesce else placed.incidence_counts
    return matrix.mean(axis=0) @ a

