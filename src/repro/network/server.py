"""Origin server: the authoritative source of items and their sizes.

The paper abstracts "the entire network" into one PS service; concretely we
still need something that knows item sizes (for heterogeneous-size
experiments).  The origin holds a size map (or a size distribution sampled
lazily per item, frozen thereafter so an item's size is consistent across
fetches) and delegates transfer timing to the
:class:`~repro.network.link.SharedLink`.
"""

from __future__ import annotations

import copy
from typing import Hashable, Mapping

import numpy as np

from repro.des.events import Event
from repro.errors import ParameterError
from repro.network.link import SharedLink
from repro.network.messages import FetchKind
from repro.workload.sizes import FixedSize, SizeDistribution

__all__ = ["OriginServer"]


class OriginServer:
    """Item catalogue + transfer source behind the shared link.

    Parameters
    ----------
    link:
        The bottleneck to stream through.
    sizes:
        Either a mapping ``item -> size`` or a
        :class:`~repro.workload.sizes.SizeDistribution` sampled once per
        distinct item (stable sizes — a second fetch of the same item has
        the same size).
    rng:
        Required when ``sizes`` (or ``fallback``) is a distribution.
    fallback:
        Optional size distribution for items missing from a ``sizes``
        *mapping* (trace replay: recorded items carry trace sizes, while
        prefetch candidates outside the trace are sampled lazily).  Only
        meaningful with a mapping.
    """

    def __init__(
        self,
        link: SharedLink,
        sizes: Mapping[Hashable, float] | SizeDistribution | None = None,
        *,
        rng: np.random.Generator | None = None,
        fallback: SizeDistribution | None = None,
    ) -> None:
        self.link = link
        if sizes is None:
            sizes = FixedSize(1.0)
        self._size_map: dict[Hashable, float]
        self._size_dist: SizeDistribution | None
        if isinstance(sizes, SizeDistribution):
            if fallback is not None:
                raise ParameterError(
                    "fallback only applies when sizes is a mapping"
                )
            self._size_map = {}
            self._size_dist = sizes
            if rng is None:
                raise ParameterError("a SizeDistribution origin needs an rng")
            self._rng = rng
        else:
            self._size_map = dict(sizes)
            for item, size in self._size_map.items():
                if size <= 0:
                    raise ParameterError(f"item {item!r} has non-positive size {size!r}")
            self._size_dist = fallback
            if fallback is not None and rng is None:
                raise ParameterError("a fallback size distribution needs an rng")
            self._rng = rng  # unused without a fallback distribution

    # ------------------------------------------------------------------
    def size_of(self, item: Hashable) -> float:
        """The (stable) size of ``item``."""
        if item in self._size_map:
            return self._size_map[item]
        if self._size_dist is None:
            raise ParameterError(f"unknown item {item!r} and no size distribution")
        size = float(self._size_dist.sample(self._rng))
        self._size_map[item] = size
        return size

    def fetch(self, item: Hashable, *, kind: FetchKind | str, client: int) -> Event:
        """Stream ``item`` to ``client`` through the link (which checks
        ``kind``)."""
        return self.link.fetch(
            item=item, size=self.size_of(item), kind=kind, client=client
        )

    def with_link(self, link: SharedLink) -> "OriginServer":
        """A view of this origin that streams through a different link.

        The catalogue is authoritative and shared: the view aliases the
        size map, size distribution and RNG, so an item's lazily-sampled
        size is identical no matter which proxy's link first fetched it.
        It shares no per-item counters: the origin keeps none, and each
        link counts its own bytes and fetches per kind.  Only the transfer
        path differs — this is how a multi-proxy topology shards traffic
        across per-node uplinks without forking the catalogue.
        """
        view = copy.copy(self)  # shallow: the size map stays shared
        view.link = link
        return view
