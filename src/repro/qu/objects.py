"""Q/U object state: candidates and replica histories.

Each server keeps, per object, a *replica history* — the set of versions
(candidates) it has accepted, ordered by timestamp. Clients classify the
state of an object from the replica histories returned by a quorum:

* **complete** — every server in the quorum has the same latest candidate;
  the conditioned operation applied cleanly everywhere (the common case).
* **contended** — servers disagree on the latest candidate or rejected the
  condition; the client must refresh and retry (stand-in for Q/U's
  repair/barrier machinery, which failure-free runs exercise only under
  write contention).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.qu.timestamps import QUTimestamp

__all__ = ["Candidate", "ReplicaHistory", "classify_replies"]


@dataclass(frozen=True, slots=True)
class Candidate:
    """One object version: a timestamp and an opaque value token."""

    timestamp: QUTimestamp
    value: int


@dataclass
class ReplicaHistory:
    """The per-object version history a server maintains.

    :meth:`accept` and :meth:`prune` are the only mutators of
    ``candidates``; they keep :attr:`latest` up to date, so reading it is
    O(1) in the history's length.
    """

    candidates: list[Candidate] = field(default_factory=list)
    _latest: Candidate = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.candidates:
            self.candidates.append(
                Candidate(timestamp=QUTimestamp.zero(), value=0)
            )
        self._latest = max(self.candidates, key=lambda c: c.timestamp)

    @property
    def latest(self) -> Candidate:
        """The highest-timestamped candidate, as ``max`` would pick it."""
        return self._latest

    def accept(self, candidate: Candidate) -> None:
        """Append a new candidate (server-side accept)."""
        self.candidates.append(candidate)
        if candidate.timestamp > self._latest.timestamp:
            self._latest = candidate

    def prune(self, keep_last: int = 8) -> None:
        """Discard old candidates, keeping the most recent ``keep_last``.

        Q/U servers prune replica histories once versions are known to be
        established; keeping a short suffix bounds memory in long runs.
        A history is never empty, so ``keep_last`` must be at least 1.
        """
        if keep_last < 1:
            raise SimulationError(f"keep_last must be >= 1, got {keep_last}")
        if len(self.candidates) <= keep_last:
            return
        self.candidates.sort(key=lambda c: c.timestamp)
        self.candidates = self.candidates[-keep_last:]
        self._latest = max(self.candidates, key=lambda c: c.timestamp)

    def copy_latest(self) -> "ReplicaHistory":
        """A lightweight copy carrying only the latest candidate (what a
        server returns in a reply)."""
        return ReplicaHistory(candidates=[self._latest])


def classify_replies(histories: list[ReplicaHistory]) -> tuple[str, Candidate]:
    """Classify the object state from a quorum of replica histories.

    Returns ``("complete", latest)`` when the quorum agrees on the latest
    candidate, else ``("contended", latest)`` with the highest candidate
    seen (the version to re-condition on).
    """
    latests = [h.latest for h in histories]
    top = max(latests, key=lambda c: c.timestamp)
    if all(c.timestamp == top.timestamp for c in latests):
        return "complete", top
    return "contended", top
