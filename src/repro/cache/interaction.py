"""Operational counterparts of the paper's interaction models A and B.

§2.2 defines the models abstractly; to *simulate* them we need concrete
eviction behaviour:

* **Model A** (*evict zero-value items*): :class:`ValueAwareCache` consults
  a value oracle (predicted access probability per key) and evicts the
  minimum-value entry — when zero-value entries exist they go first, which
  is exactly the model-A premise.
* **Model B** (*evict average-value items*): uniform-random eviction
  (:class:`repro.cache.random_policy.RandomCache`) forfeits the cache-average
  hit contribution ``h′/n̄(C)`` in expectation — exactly eq. (15).

:func:`make_cache` is the factory the simulation configuration uses.
"""

from __future__ import annotations

from typing import Callable, Hashable, Optional

import numpy as np

from repro.cache.base import Cache, CacheEntry
from repro.cache.clock import ClockCache
from repro.cache.lazyheap import LazyEvictionHeap
from repro.cache.fifo import FIFOCache
from repro.cache.gds import GreedyDualSizeCache
from repro.cache.lfu import LFUCache
from repro.cache.lru import LRUCache
from repro.cache.random_policy import RandomCache
from repro.errors import ConfigurationError

__all__ = ["ValueAwareCache", "make_cache", "CACHE_POLICIES"]


class ValueAwareCache(Cache):
    """Evicts the entry with the smallest oracle value (model A semantics).

    Parameters
    ----------
    value_fn:
        Maps a key to its current value (e.g. predicted access
        probability).  Ties break LRU.

    Notes
    -----
    Victim selection uses a lazy-invalidation heap (the GDS pattern, see
    :mod:`repro.cache.lazyheap`) instead of the previous O(n) min-scan,
    which re-evaluated ``value_fn`` for *every* resident entry on *every*
    eviction — the dominant cost when the oracle is a live predictor.
    Three mechanisms keep heap ranks tracking a *changing* oracle:

    * every touch (insert/access) pushes the entry's fresh value;
    * each eviction re-validates candidates cheapest-first — a popped
      candidate whose recomputed value rose is re-ranked and the scan
      continues, so the victim's value is always current;
    * each eviction additionally re-ranks a bounded round-robin batch
      (~√n entries), so an entry whose value *dropped* while it sat high
      in the heap (e.g. a predictor moved on) is observed within O(√n)
      evictions instead of squatting until its next touch.

    Net cost per eviction is O(√n) oracle calls and O(√n log n) heap work
    versus the scan's O(n) oracle calls; model A's premise (zero-value
    entries go first) is preserved up to that bounded re-validation lag.
    """

    policy_name = "value-aware"

    def __init__(
        self,
        capacity_items=None,
        *,
        capacity_bytes=None,
        value_fn: Optional[Callable[[Hashable], float]] = None,
    ) -> None:
        super().__init__(capacity_items, capacity_bytes=capacity_bytes)
        self._value_fn = value_fn or (lambda key: 0.0)
        self._heap = LazyEvictionHeap()
        #: eviction-cycle stamps for the re-validation loop in _victim
        self._generation = 0
        self._revalidated: dict[Hashable, int] = {}
        #: round-robin queue for the bounded per-eviction refresh sweep
        self._sweep_queue: list[Hashable] = []

    def _rank(self, entry: CacheEntry) -> tuple:
        return (
            self._value_fn(entry.key),
            entry.last_access_time,
            entry.insert_time,
            self._heap.arrival(entry.key),
        )

    def _on_insert(self, entry: CacheEntry) -> None:
        self._heap.push(entry, self._rank(entry))

    def _on_access(self, entry: CacheEntry) -> None:
        self._heap.push(entry, self._rank(entry))

    def _refresh_batch(self) -> None:
        """Re-rank ~√n resident entries, round-robin across evictions."""
        if not self._sweep_queue:
            self._sweep_queue = list(self._entries)
        batch = max(1, int(len(self._entries) ** 0.5))
        for _ in range(min(batch, len(self._sweep_queue))):
            key = self._sweep_queue.pop()
            entry = self._entries.get(key)
            if entry is not None:
                self._heap.push(entry, self._rank(entry))

    def _victim(self) -> CacheEntry:
        self._refresh_batch()
        self._generation += 1
        while True:
            slot = self._heap.pop()
            entry = slot[-1]
            if self._revalidated.get(entry.key) == self._generation:
                # Already re-scored this eviction: its rank is current and
                # it is back at the heap minimum, so it is the victim.
                return entry
            fresh = self._value_fn(entry.key)
            self._revalidated[entry.key] = self._generation
            if fresh == slot[0]:
                return entry
            self._heap.push(
                entry,
                (fresh, entry.last_access_time, entry.insert_time,
                 self._heap.arrival(entry.key)),
            )

    def _on_remove(self, entry: CacheEntry) -> None:
        self._revalidated.pop(entry.key, None)
        self._heap.invalidate(entry.key)


#: Registry of constructible policies for configuration files / CLI.
CACHE_POLICIES = {
    "lru": LRUCache,
    "lfu": LFUCache,
    "fifo": FIFOCache,
    "clock": ClockCache,
    "random": RandomCache,
    "gds": GreedyDualSizeCache,
    "value-aware": ValueAwareCache,
}


def make_cache(
    policy: str,
    capacity_items: int,
    *,
    rng: np.random.Generator | None = None,
    value_fn: Optional[Callable[[Hashable], float]] = None,
) -> Cache:
    """Instantiate a cache by policy name.

    ``rng`` feeds the random policy (model B); ``value_fn`` feeds the
    value-aware policy (model A).  Unused arguments are ignored so callers
    can pass both and switch policies from configuration alone.
    """
    policy = policy.lower()
    if policy not in CACHE_POLICIES:
        raise ConfigurationError(
            f"unknown cache policy {policy!r}; known: {sorted(CACHE_POLICIES)}"
        )
    if policy == "random":
        return RandomCache(capacity_items, rng=rng)
    if policy == "value-aware":
        return ValueAwareCache(capacity_items, value_fn=value_fn)
    return CACHE_POLICIES[policy](capacity_items)
