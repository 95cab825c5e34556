"""Q/U wire messages.

Only two message types cross the simulated network: a conditioned request
and its reply. Both carry the timing fields the metrics layer needs to
separate network transit from queueing at servers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.qu.objects import ReplicaHistory
from repro.qu.timestamps import QUTimestamp

__all__ = ["QURequest", "QUReply"]


@dataclass(slots=True)
class QURequest:
    """A conditioned single-round-trip operation.

    ``condition_on`` is the object version the client believes is latest;
    a write is accepted only if the server's latest matches it. ``is_write``
    False models inline reads (no new candidate is created).
    """

    client_id: int
    op_seq: int
    object_id: int
    condition_on: QUTimestamp
    is_write: bool
    sent_at_ms: float
    arrived_at_ms: float = -1.0


@dataclass(slots=True)
class QUReply:
    """A server's answer: accept/reject plus its (pruned) replica history."""

    server_id: int
    client_id: int
    op_seq: int
    accepted: bool
    history: ReplicaHistory
    request_arrived_at_ms: float
    sent_at_ms: float
