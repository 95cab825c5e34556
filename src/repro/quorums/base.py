"""Abstract quorum-system API.

Two representations coexist:

* *Enumerated* systems expose an explicit tuple of quorums. The Grid (k^2
  quorums) and small Majorities are enumerated; every placement and strategy
  algorithm works on them directly.
* *Implicit threshold* systems (Majorities with large universes) have
  combinatorially many quorums (``C(n, q)``), so they additionally expose
  structure — the quorum size ``q`` — that lets the closest-quorum and
  balanced strategies be evaluated exactly without enumeration (see
  :mod:`repro.quorums.order_stats`).

Element identifiers are integers ``0 .. universe_size-1``; a placement maps
them to topology nodes.
"""

from __future__ import annotations

# cache-key-input: system_fingerprint hashes the enumerated quorum list
# (or threshold structure) defined through this API; construction changes
# here change every cache key downstream.

import itertools
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import QuorumSystemError

__all__ = ["QuorumSystem", "EnumeratedQuorumSystem", "MemberIndex"]

#: Refuse to enumerate more quorums than this (safety valve for thresholds).
MAX_ENUMERABLE_QUORUMS = 200_000


@dataclass(frozen=True)
class MemberIndex:
    """Quorum membership as read-only integer arrays.

    ``quorum_ids[j]`` and ``elements[j]`` are the ``j``-th
    ``(quorum, element)`` pair, listed quorum by quorum in the iteration
    order of ``system.quorums`` and of each quorum's frozenset — the order
    a ``for i, quorum in enumerate(quorums): for u in quorum`` loop visits
    them, so accumulating over the pairs adds in that loop's order.

    ``matrix`` is the same membership as a rectangular ``(m, k_max)``
    element matrix: row ``i`` lists ``Q_i``'s elements, and a row shorter
    than ``k_max`` is padded by repeating its own first element. A
    repeated element never changes a max over the row or the set of nodes
    the row touches, so gathers through ``matrix`` need no mask.
    """

    quorum_ids: np.ndarray
    elements: np.ndarray
    matrix: np.ndarray
    universe_size: int

    @classmethod
    def of(
        cls, quorums: tuple[frozenset[int], ...], universe_size: int
    ) -> "MemberIndex":
        sizes = np.fromiter(
            (len(q) for q in quorums), dtype=np.intp, count=len(quorums)
        )
        n_pairs = int(sizes.sum())
        elements = np.fromiter(
            itertools.chain.from_iterable(quorums), dtype=np.intp, count=n_pairs
        )
        quorum_ids = np.repeat(np.arange(len(quorums), dtype=np.intp), sizes)
        starts = np.cumsum(sizes) - sizes
        slots = np.arange(n_pairs, dtype=np.intp) - starts[quorum_ids]
        matrix = np.repeat(elements[starts, None], sizes.max(), axis=1)
        matrix[quorum_ids, slots] = elements
        for arr in (quorum_ids, elements, matrix):
            arr.setflags(write=False)
        return cls(
            quorum_ids=quorum_ids,
            elements=elements,
            matrix=matrix,
            universe_size=universe_size,
        )

    def element_loads(self, p: np.ndarray) -> np.ndarray:
        """``load_p(u) = sum_{Q_i ni u} p_i`` for every element ``u``.

        One ``bincount`` over the pairs; each element's terms are added in
        pair order, the order of the quorum-by-quorum loop.
        """
        return np.bincount(
            self.elements,
            weights=p[self.quorum_ids],
            minlength=self.universe_size,
        )


class QuorumSystem(ABC):
    """A quorum system over universe ``{0, ..., universe_size - 1}``."""

    @property
    @abstractmethod
    def name(self) -> str:
        """Human-readable system name (used in experiment reports)."""

    @property
    @abstractmethod
    def universe_size(self) -> int:
        """Number of logical elements ``n = |U|``."""

    @property
    @abstractmethod
    def is_enumerable(self) -> bool:
        """Whether :attr:`quorums` can be materialized."""

    @property
    @abstractmethod
    def num_quorums(self) -> int:
        """Number of quorums ``m = |Q|`` (may be huge for thresholds)."""

    @property
    @abstractmethod
    def quorums(self) -> tuple[frozenset[int], ...]:
        """All quorums, as frozensets of element ids.

        Raises :class:`QuorumSystemError` for non-enumerable systems.
        """

    @property
    @abstractmethod
    def min_quorum_size(self) -> int:
        """Size of the smallest quorum."""

    # ------------------------------------------------------------------
    # Shared behaviour
    # ------------------------------------------------------------------
    def elements(self) -> range:
        """The universe ``U``."""
        return range(self.universe_size)

    def validate(self) -> None:
        """Check the defining invariants; raise on violation.

        * every quorum is a non-empty subset of the universe,
        * every two quorums intersect.

        For non-enumerable systems, subclasses override this with a
        structural argument (e.g. ``2q > n`` for thresholds).
        """
        quorums = self.quorums
        if not quorums:
            raise QuorumSystemError(f"{self.name}: no quorums defined")
        universe = frozenset(self.elements())
        for quorum in quorums:
            if not quorum:
                raise QuorumSystemError(f"{self.name}: empty quorum")
            if not quorum <= universe:
                raise QuorumSystemError(
                    f"{self.name}: quorum {sorted(quorum)} escapes universe"
                )
        for i, a in enumerate(quorums):
            for b in quorums[i + 1 :]:
                if not (a & b):
                    raise QuorumSystemError(
                        f"{self.name}: disjoint quorums "
                        f"{sorted(a)} and {sorted(b)}"
                    )

    @cached_property
    def member_index(self) -> MemberIndex:
        """The ``(quorum, element)`` incidence of :attr:`quorums` as arrays.

        Built once per system and shared by every placement of it, so a
        search that places one system many times pays for it once.
        Raises :class:`QuorumSystemError` for non-enumerable systems
        (through :attr:`quorums`) before allocating anything.
        """
        return MemberIndex.of(self.quorums, self.universe_size)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(name={self.name!r}, "
            f"n={self.universe_size}, m={self.num_quorums})"
        )


class EnumeratedQuorumSystem(QuorumSystem):
    """A quorum system defined by an explicit list of quorums."""

    def __init__(
        self,
        quorums: list[frozenset[int]] | tuple[frozenset[int], ...],
        universe_size: int | None = None,
        name: str = "custom",
    ) -> None:
        materialized = tuple(frozenset(q) for q in quorums)
        if not materialized:
            raise QuorumSystemError("at least one quorum is required")
        if len(materialized) > MAX_ENUMERABLE_QUORUMS:
            raise QuorumSystemError(
                f"refusing to materialize {len(materialized)} quorums"
            )
        covered = frozenset().union(*materialized)
        if universe_size is None:
            universe_size = (max(covered) + 1) if covered else 0
        if covered and max(covered) >= universe_size:
            raise QuorumSystemError(
                "quorum element id exceeds declared universe size"
            )
        self._quorums = materialized
        self._universe_size = int(universe_size)
        self._name = name
        self.validate()

    @property
    def name(self) -> str:
        return self._name

    @property
    def universe_size(self) -> int:
        return self._universe_size

    @property
    def is_enumerable(self) -> bool:
        return True

    @property
    def num_quorums(self) -> int:
        return len(self._quorums)

    @cached_property
    def quorums(self) -> tuple[frozenset[int], ...]:
        return self._quorums

    @property
    def min_quorum_size(self) -> int:
        return min(len(q) for q in self._quorums)
