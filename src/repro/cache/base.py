"""Cache abstraction shared by all replacement policies.

The paper's client caches hold ``n̄(C)`` items on average; prefetched items
*compete for space* with demand-cached ones (§2.2), and the §4 h′-estimation
algorithm needs every entry to carry a *tagged/untagged* status.  This module
provides:

* :class:`CacheEntry` — key, size, tag status, bookkeeping timestamps;
* :class:`CacheStats` — hits/misses split by demand vs prefetch origin;
* :class:`Cache` — the policy-independent machinery (lookup, insert, evict,
  capacity enforcement, stats); policies implement
  ``_on_access`` / ``_on_insert`` / ``_victim``.

Capacity is counted in items to match the paper's ``n̄(C)``; a byte-capacity
mode (``capacity_bytes``) is supported for the GreedyDual-Size policy and
size-aware experiments.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Hashable, Iterator, Optional

from repro.errors import ParameterError

__all__ = ["Cache", "CacheEntry", "CacheStats"]

Key = Hashable


@dataclass(eq=False, slots=True)
class CacheEntry:
    """One cached item.

    ``tagged`` implements the §4 estimation algorithm's entry status:
    prefetched items enter *untagged* and become tagged on first access;
    demand-fetched items enter tagged.
    """

    key: Key
    size: float = 1.0
    tagged: bool = True
    prefetched: bool = False
    insert_time: float = 0.0
    last_access_time: float = 0.0
    access_count: int = 0
    #: policy scratch space (e.g. GreedyDual-Size H value, CLOCK bit)
    priority: float = 0.0


@dataclass(slots=True)
class CacheStats:
    """Counters maintained by every cache instance."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    prefetch_insertions: int = 0
    evictions: int = 0
    prefetch_evictions: int = 0  # evicted before ever being used
    tagged_hits: int = 0  # hits on tagged entries (feeds the h' estimator)
    untagged_hits: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.accesses if self.accesses else float("nan")


class Cache(ABC):
    """Replacement-policy framework.

    Parameters
    ----------
    capacity_items:
        Maximum number of resident entries (``n̄(C)``); ``None`` disables the
        item bound (then ``capacity_bytes`` must be set).
    capacity_bytes:
        Optional total-size bound for size-aware policies.

    Subclasses implement the policy hooks:

    ``_on_insert(entry)``
        entry joined the cache,
    ``_on_access(entry)``
        entry was hit,
    ``_on_remove(entry)``
        entry left (eviction or explicit removal),
    ``_victim()``
        choose the entry to evict (cache is non-empty).
    """

    #: human-readable policy name, overridden by subclasses
    policy_name = "abstract"

    def __init__(
        self,
        capacity_items: Optional[int] = None,
        *,
        capacity_bytes: Optional[float] = None,
    ) -> None:
        if capacity_items is None and capacity_bytes is None:
            raise ParameterError("cache needs capacity_items or capacity_bytes")
        if capacity_items is not None and capacity_items < 1:
            raise ParameterError(f"capacity_items must be >= 1, got {capacity_items!r}")
        if capacity_bytes is not None and capacity_bytes <= 0:
            raise ParameterError(f"capacity_bytes must be > 0, got {capacity_bytes!r}")
        self.capacity_items = capacity_items
        self.capacity_bytes = capacity_bytes
        self._entries: dict[Key, CacheEntry] = {}
        self._bytes_used = 0.0
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Key) -> bool:
        """Presence test with *no* stats or policy side effects."""
        return key in self._entries

    def __iter__(self) -> Iterator[Key]:
        return iter(self._entries)

    def entry(self, key: Key) -> Optional[CacheEntry]:
        """Raw entry access (no side effects); None when absent."""
        return self._entries.get(key)

    def keys(self) -> list[Key]:
        return list(self._entries)

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def lookup(self, key: Key, *, now: float = 0.0) -> Optional[CacheEntry]:
        """Access ``key``: returns its entry on a hit (recording stats and
        updating tag status per §4), None on a miss."""
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        if entry.tagged:
            self.stats.tagged_hits += 1
        else:
            self.stats.untagged_hits += 1
            entry.tagged = True  # §4: "untagged entry accessed -> tag it"
        entry.access_count += 1
        entry.last_access_time = now
        self._on_access(entry)
        return entry

    def insert(
        self,
        key: Key,
        *,
        now: float = 0.0,
        size: float = 1.0,
        prefetched: bool = False,
    ) -> CacheEntry:
        """Admit ``key``; evicts per policy until the entry fits.

        Per §4: prefetched items enter *untagged*, demand-fetched items
        enter *tagged*.  Re-inserting a resident key refreshes it in place
        (an existing demand entry is not demoted by a later prefetch).
        """
        if size <= 0:
            raise ParameterError(f"item size must be > 0, got {size!r}")
        existing = self._entries.get(key)
        if existing is not None:
            existing.last_access_time = now
            if not prefetched:
                existing.tagged = True
            self._on_access(existing)
            return existing
        entry = CacheEntry(
            key=key,
            size=size,
            tagged=not prefetched,
            prefetched=prefetched,
            insert_time=now,
            last_access_time=now,
        )
        self._make_room(entry)
        self._entries[key] = entry
        self._bytes_used += entry.size
        self.stats.insertions += 1
        if prefetched:
            self.stats.prefetch_insertions += 1
        self._on_insert(entry)
        return entry

    def remove(self, key: Key) -> Optional[CacheEntry]:
        """Explicitly drop ``key`` (no eviction stats); None when absent."""
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._bytes_used -= entry.size
            self._on_remove(entry)
        return entry

    def evict_one(self) -> CacheEntry:
        """Evict the policy's victim and return it."""
        if not self._entries:
            raise ParameterError("cannot evict from an empty cache")
        victim = self._victim()
        del self._entries[victim.key]
        self._bytes_used -= victim.size
        self.stats.evictions += 1
        if victim.prefetched and victim.access_count == 0:
            self.stats.prefetch_evictions += 1
        self._on_remove(victim)
        return victim

    def _make_room(self, incoming: CacheEntry) -> None:
        if self.capacity_bytes is not None and incoming.size > self.capacity_bytes:
            raise ParameterError(
                f"item of size {incoming.size} exceeds cache byte capacity "
                f"{self.capacity_bytes}"
            )
        while self._entries and (
            (self.capacity_items is not None and len(self._entries) >= self.capacity_items)
            or (
                self.capacity_bytes is not None
                and self._bytes_used + incoming.size > self.capacity_bytes
            )
        ):
            self.evict_one()

    # ------------------------------------------------------------------
    # Policy hooks
    # ------------------------------------------------------------------
    def _on_insert(self, entry: CacheEntry) -> None:  # noqa: B027 - optional hook
        pass

    def _on_access(self, entry: CacheEntry) -> None:  # noqa: B027 - optional hook
        pass

    def _on_remove(self, entry: CacheEntry) -> None:  # noqa: B027 - optional hook
        pass

    @abstractmethod
    def _victim(self) -> CacheEntry:
        """Pick the entry to evict; the cache is guaranteed non-empty."""
