"""Least-Recently-Used replacement.

The default policy for clients in the full simulation: the classic choice
for the file/web caches the paper targets (Sprite, NFS, proxy caches — §1
references).  Implementation keeps recency order in a ``dict`` (Python
dicts preserve insertion order; ``move to end`` is delete+reinsert, O(1)).
"""

from __future__ import annotations

from repro.cache.base import Cache, CacheEntry

__all__ = ["LRUCache"]


class LRUCache(Cache):
    """Evicts the entry whose last access is oldest."""

    policy_name = "lru"

    def __init__(self, capacity_items=None, *, capacity_bytes=None) -> None:
        super().__init__(capacity_items, capacity_bytes=capacity_bytes)
        self._order: dict[object, CacheEntry] = {}

    def _touch(self, entry: CacheEntry) -> None:
        self._order.pop(entry.key, None)
        self._order[entry.key] = entry

    def _on_insert(self, entry: CacheEntry) -> None:
        self._touch(entry)

    def _on_access(self, entry: CacheEntry) -> None:
        self._touch(entry)

    def _on_remove(self, entry: CacheEntry) -> None:
        self._order.pop(entry.key, None)

    def _victim(self) -> CacheEntry:
        oldest_key = next(iter(self._order))
        return self._order[oldest_key]
