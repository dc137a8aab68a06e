"""Tests for the cache framework: stats, tagging (§4), capacity."""

import pytest

from repro.cache import LRUCache
from repro.errors import ParameterError


class TestLookupAndStats:
    def test_miss_then_hit(self):
        cache = LRUCache(4)
        assert cache.lookup("a") is None
        cache.insert("a")
        assert cache.lookup("a") is not None
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.stats.hit_ratio == pytest.approx(0.5)

    def test_contains_has_no_side_effects(self):
        cache = LRUCache(4)
        cache.insert("a")
        _ = "a" in cache
        _ = "b" in cache
        assert cache.stats.accesses == 0

    def test_len_and_iter(self):
        cache = LRUCache(4)
        for k in "abc":
            cache.insert(k)
        assert len(cache) == 3
        assert set(cache) == {"a", "b", "c"}


class TestTagDiscipline:
    """The §4 algorithm's entry-status rules."""

    def test_demand_insert_is_tagged(self):
        cache = LRUCache(4)
        entry = cache.insert("a", prefetched=False)
        assert entry.tagged

    def test_prefetch_insert_is_untagged(self):
        cache = LRUCache(4)
        entry = cache.insert("a", prefetched=True)
        assert not entry.tagged

    def test_untagged_access_promotes_and_counts_once(self):
        cache = LRUCache(4)
        cache.insert("a", prefetched=True)
        first = cache.lookup("a")
        assert first.tagged  # promoted by the access
        assert cache.stats.untagged_hits == 1 and cache.stats.tagged_hits == 0
        cache.lookup("a")
        assert cache.stats.tagged_hits == 1

    def test_prefetch_reinsert_does_not_demote(self):
        cache = LRUCache(4)
        cache.insert("a", prefetched=False)
        entry = cache.insert("a", prefetched=True)  # late prefetch lands
        assert entry.tagged

    def test_demand_reinsert_promotes(self):
        cache = LRUCache(4)
        cache.insert("a", prefetched=True)
        entry = cache.insert("a", prefetched=False)
        assert entry.tagged


class TestCapacityAndEviction:
    def test_capacity_bound_held(self):
        cache = LRUCache(3)
        for k in range(10):
            cache.insert(k)
            assert len(cache) <= 3

    def test_eviction_stats(self):
        cache = LRUCache(2)
        cache.insert("a", prefetched=True)
        cache.insert("b")
        cache.insert("c")  # evicts 'a' (LRU), never used
        assert cache.stats.evictions == 1
        assert cache.stats.prefetch_evictions == 1

    def test_insert_into_full_cache_evicts_one(self):
        cache = LRUCache(1)
        cache.insert("a")
        before = set(cache)
        cache.insert("b")
        assert before - set(cache) == {"a"}

    def test_remove_is_not_an_eviction(self):
        cache = LRUCache(2)
        cache.insert("a")
        assert cache.remove("a").key == "a"
        assert cache.stats.evictions == 0
        assert cache.remove("missing") is None

    def test_evict_empty_raises(self):
        with pytest.raises(ParameterError):
            LRUCache(2).evict_one()

    def test_byte_capacity(self):
        cache = LRUCache(capacity_bytes=10.0)
        cache.insert("a", size=6.0)
        cache.insert("b", size=6.0)  # must evict 'a'
        assert "a" not in cache and "b" in cache
        assert sum(cache.entry(k).size for k in cache) == pytest.approx(6.0)

    def test_oversized_item_rejected(self):
        cache = LRUCache(capacity_bytes=5.0)
        with pytest.raises(ParameterError):
            cache.insert("big", size=6.0)

    def test_needs_some_capacity(self):
        with pytest.raises(ParameterError):
            LRUCache()

    def test_bad_sizes_rejected(self):
        cache = LRUCache(2)
        with pytest.raises(ParameterError):
            cache.insert("a", size=0.0)
