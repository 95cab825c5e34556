"""Quorum placements: the mapping ``f : U -> V``.

A placement assigns every universe element of a quorum system to a node of
the topology (Section 4, "Quorum placement"). One-to-one placements preserve
the fault tolerance of the original system (distinct elements fail
independently); many-to-one placements may reduce network delay by
co-locating elements.

:class:`PlacedQuorumSystem` bundles (system, placement, topology) and caches
the derived quantities every algorithm needs: placed quorums ``f(Q)``, the
element-to-node incidence matrix, and the network-delay matrix
``delta_f(v, Q_i) = max_{w in f(Q_i)} d(v, w)``.

The quorum structure is per system, not per placement: every placement
gathers through its system's cached
:attr:`~repro.quorums.base.QuorumSystem.member_index`, so the candidates
of one search share one index. Padding in its ``(m, k_max)`` element
matrix repeats a member of the row, so it never changes a per-quorum max.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.errors import PlacementError
from repro.network.graph import Topology
from repro.quorums.base import QuorumSystem
from repro.quorums.threshold import ThresholdQuorumSystem

__all__ = ["Placement", "PlacedQuorumSystem"]


class Placement:
    """An assignment of universe elements to topology nodes."""

    def __init__(self, assignment: object) -> None:
        arr = np.asarray(assignment, dtype=np.intp)
        if arr.ndim != 1 or arr.size == 0:
            raise PlacementError(
                f"assignment must be a non-empty vector, got shape {arr.shape}"
            )
        if np.any(arr < 0):
            raise PlacementError("assignment contains negative node ids")
        self._assignment = arr
        self._assignment.setflags(write=False)

    @property
    def assignment(self) -> np.ndarray:
        """``assignment[u]`` is the node hosting element ``u`` (read-only)."""
        return self._assignment

    @property
    def universe_size(self) -> int:
        return self._assignment.size

    def node_of(self, element: int) -> int:
        """The node ``f(u)`` hosting a universe element."""
        return int(self._assignment[element])

    @cached_property
    def support_set(self) -> np.ndarray:
        """Sorted distinct nodes hosting at least one element (``f(U)``)."""
        return np.unique(self._assignment)

    @property
    def is_one_to_one(self) -> bool:
        """True when distinct elements land on distinct nodes."""
        return self.support_set.size == self.universe_size

    def elements_on(self, node: int) -> np.ndarray:
        """Ids of the universe elements placed on ``node``."""
        return np.flatnonzero(self._assignment == node)

    def multiplicities(self, n_nodes: int) -> np.ndarray:
        """``result[w]`` = number of elements placed on node ``w``."""
        return np.bincount(self._assignment, minlength=n_nodes)

    def validate_for(self, system: QuorumSystem, topology: Topology) -> None:
        """Check compatibility with a quorum system and a topology."""
        if self.universe_size != system.universe_size:
            raise PlacementError(
                f"placement covers {self.universe_size} elements but "
                f"{system.name} has universe size {system.universe_size}"
            )
        if int(self._assignment.max()) >= topology.n_nodes:
            raise PlacementError(
                "placement references a node outside the topology"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Placement):
            return NotImplemented
        return np.array_equal(self._assignment, other._assignment)

    def __hash__(self) -> int:
        return hash(self._assignment.tobytes())

    def __repr__(self) -> str:
        return (
            f"Placement(universe_size={self.universe_size}, "
            f"support={self.support_set.size} nodes)"
        )


class PlacedQuorumSystem:
    """A quorum system placed on a topology; the unit every evaluator consumes."""

    def __init__(
        self,
        system: QuorumSystem,
        placement: Placement,
        topology: Topology,
    ) -> None:
        placement.validate_for(system, topology)
        self.system = system
        self.placement = placement
        self.topology = topology

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return self.topology.n_nodes

    @property
    def num_quorums(self) -> int:
        return self.system.num_quorums

    @property
    def is_threshold(self) -> bool:
        """True when the system is an implicit threshold (Majority) system."""
        return isinstance(self.system, ThresholdQuorumSystem)

    @cached_property
    def incidence_counts(self) -> np.ndarray:
        """``A[i, w]`` = number of elements of ``Q_i`` placed on node ``w``.

        This is the paper's load model: a node hosting several elements of
        the accessed quorum processes the request once *per element*.
        Requires an enumerable system.
        """
        members = self.system.member_index
        n_nodes = self.n_nodes
        cells = (
            members.quorum_ids * n_nodes
            + self.placement.assignment[members.elements]
        )
        counts = np.bincount(cells, minlength=self.num_quorums * n_nodes)
        return counts.reshape(self.num_quorums, n_nodes).astype(np.float64)

    @cached_property
    def incidence_indicator(self) -> np.ndarray:
        """``A[i, w] in {0, 1}``: whether any element of ``Q_i`` is on ``w``.

        The paper's future-work variation ("a server hosting multiple
        universe elements would execute a request only once"); used by the
        coalescing ablation.
        """
        return (self.incidence_counts > 0).astype(np.float64)

    # ------------------------------------------------------------------
    # Delays
    # ------------------------------------------------------------------
    def _max_over_quorums(self, values: np.ndarray) -> np.ndarray:
        """``out[v, i] = max_{w in f(Q_i)} values[v, w]`` as a broadcast.

        Gathers ``values`` through ``assignment[matrix]``, the system's
        padded member matrix mapped to nodes; padding repeats a member of
        the row, so no mask is needed. Chunked over quorums so the
        (clients, chunk, k_max) gather stays within a few megabytes even
        for enumerated threshold systems.
        """
        idx = self.placement.assignment[self.system.member_index.matrix]
        n, (m, k_max) = values.shape[0], idx.shape
        out = np.empty((n, m))
        chunk = max(1, 2_000_000 // max(1, n * k_max))
        for start in range(0, m, chunk):
            sl = slice(start, min(start + chunk, m))
            out[:, sl] = values[:, idx[sl]].max(axis=2)
        return out

    @cached_property
    def delay_matrix(self) -> np.ndarray:
        """``delta[v, i] = max_{w in f(Q_i)} d(v, w)`` for all clients/quorums.

        Requires an enumerable system; threshold systems use
        :meth:`support_distances` with order statistics instead.
        """
        return self._max_over_quorums(self.topology.rtt)

    def delay_matrix_for(
        self, rtt: np.ndarray, node_costs: np.ndarray | None = None
    ) -> np.ndarray:
        """``delta[v, i]`` under an *alternative* RTT matrix.

        The dynamics subsystem uses this to re-evaluate a fixed placement
        as round-trip times drift: the placed-quorum structure (and hence
        the gather indices) is unchanged, only the distance values move.
        ``rtt`` must be square over this placement's node space; it is
        *not* re-closed metrically — drifted matrices are taken as
        measured. ``node_costs`` adds a per-node cost before the max, the
        equation-(4.1) augmentation.
        """
        values = np.asarray(rtt, dtype=np.float64)
        if values.shape != (self.n_nodes, self.n_nodes):
            raise PlacementError(
                f"rtt must have shape ({self.n_nodes}, {self.n_nodes}), "
                f"got {values.shape}"
            )
        if node_costs is not None:
            costs = np.asarray(node_costs, dtype=np.float64)
            if costs.shape != (self.n_nodes,):
                raise PlacementError(
                    f"node_costs must have shape ({self.n_nodes},), "
                    f"got {costs.shape}"
                )
            values = values + costs[None, :]
        return self._max_over_quorums(values)

    @cached_property
    def support_distances(self) -> np.ndarray:
        """``D[v, j] = d(v, support[j])`` for the placement's support set."""
        return self.topology.rtt[:, self.placement.support_set]

    def augmented_delay_matrix(self, node_costs: np.ndarray) -> np.ndarray:
        """``max_{w in f(Q_i)} (d(v, w) + node_costs[w])`` for all v, i.

        This is equation (4.1) with ``node_costs = alpha * load_f``.
        """
        costs = np.asarray(node_costs, dtype=np.float64)
        if costs.shape != (self.n_nodes,):
            raise PlacementError(
                f"node_costs must have shape ({self.n_nodes},), "
                f"got {costs.shape}"
            )
        return self._max_over_quorums(self.topology.rtt + costs[None, :])

    def __repr__(self) -> str:
        return (
            f"PlacedQuorumSystem({self.system.name!r}, "
            f"support={self.placement.support_set.size}, "
            f"n_nodes={self.n_nodes})"
        )
