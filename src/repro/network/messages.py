"""Request/response records flowing through the simulated network.

Both records are built once per fetch, so they are named tuples: as
immutable as a frozen dataclass, without its per-field ``__setattr__``.
"""

from __future__ import annotations

from enum import Enum
from typing import Hashable, NamedTuple

__all__ = ["FetchKind", "FetchRequest", "FetchResult"]


class FetchKind(str, Enum):
    """Why a fetch was issued — demand, speculation, or peer transfer.

    The distinction drives both statistics (excess retrieval cost counts
    only the *extra* traffic) and the §4 tag discipline (prefetched items
    enter the cache untagged).  ``PEER`` marks inter-proxy cooperative
    transfers: a remote cache hit streamed over the serving proxy's peer
    link instead of the origin uplink.
    """

    DEMAND = "demand"
    PREFETCH = "prefetch"
    PEER = "peer"


class FetchRequest(NamedTuple):
    """One fetch submitted to the shared link."""

    item: Hashable
    size: float
    kind: FetchKind
    client: int
    issued_at: float


class FetchResult(NamedTuple):
    """Completion record for a fetch."""

    request: FetchRequest
    completed_at: float

    @property
    def retrieval_time(self) -> float:
        """Request-to-download-completion time (the paper's r)."""
        return self.completed_at - self.request.issued_at
