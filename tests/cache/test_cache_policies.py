"""Behavioural tests for each replacement policy."""

import numpy as np
import pytest

from repro.cache import (
    ClockCache,
    FIFOCache,
    GreedyDualSizeCache,
    LFUCache,
    LRUCache,
    RandomCache,
    ValueAwareCache,
)


class TestLRU:
    def test_evicts_least_recent(self):
        cache = LRUCache(2)
        cache.insert("a")
        cache.insert("b")
        cache.lookup("a")  # refresh a
        cache.insert("c")  # evicts b
        assert "a" in cache and "c" in cache and "b" not in cache


class TestLFU:
    def test_evicts_least_frequent(self):
        cache = LFUCache(2)
        cache.insert("a")
        cache.insert("b")
        for _ in range(3):
            cache.lookup("a")
        cache.insert("c")  # evicts b (0 accesses)
        assert "a" in cache and "b" not in cache

    def test_tie_breaks_by_recency(self):
        cache = LFUCache(2)
        cache.insert("a", now=1.0)
        cache.insert("b", now=2.0)
        cache.insert("c", now=3.0)  # a and b tie at 0 accesses; a is older
        assert "a" not in cache


class TestFIFO:
    def test_ignores_accesses(self):
        cache = FIFOCache(2)
        cache.insert("a")
        cache.insert("b")
        for _ in range(5):
            cache.lookup("a")
        cache.insert("c")  # still evicts a (first in)
        assert "a" not in cache and "b" in cache


class TestClock:
    def test_second_chance(self):
        cache = ClockCache(2)
        cache.insert("a")
        cache.insert("b")
        cache.lookup("a")  # reference a
        cache.insert("c")
        # sweep: a referenced -> spared; b unreferenced after a's bit cleared
        assert "a" in cache and "b" not in cache

    def test_all_referenced_degenerates_to_fifo_sweep(self):
        cache = ClockCache(2)
        cache.insert("a")
        cache.insert("b")
        cache.lookup("a")
        cache.lookup("b")
        cache.insert("c")  # clears both bits, evicts a (hand order)
        assert "a" not in cache


class TestRandom:
    def test_eviction_uses_rng(self):
        cache = RandomCache(2, rng=np.random.default_rng(0))
        cache.insert("a")
        cache.insert("b")
        cache.insert("c")
        assert len(cache) == 2

    def test_deterministic_with_seed(self):
        def run(seed):
            cache = RandomCache(2, rng=np.random.default_rng(seed))
            for k in "abcdef":
                cache.insert(k)
            return set(cache)

        assert run(3) == run(3)


class TestGreedyDualSize:
    def test_prefers_evicting_large_items(self):
        cache = GreedyDualSizeCache(capacity_bytes=10.0)
        cache.insert("small", size=1.0)
        cache.insert("large", size=8.0)
        cache.insert("new", size=5.0)  # H(small)=1, H(large)=0.125
        assert "large" not in cache and "small" in cache

    def test_access_refreshes_priority(self):
        cache = GreedyDualSizeCache(3)
        cache.insert("a")
        cache.insert("b")
        cache.insert("c")
        cache.lookup("a")
        cache.insert("d")  # a was refreshed; b or c goes
        assert "a" in cache

    def test_custom_cost_fn(self):
        cache = GreedyDualSizeCache(
            2, cost_fn=lambda e: 100.0 if e.key == "precious" else 1.0
        )
        cache.insert("precious")
        cache.insert("cheap")
        cache.insert("new")
        assert "precious" in cache and "cheap" not in cache


class TestValueAware:
    def test_evicts_minimum_value(self):
        values = {"a": 0.9, "b": 0.0, "c": 0.5}
        cache = ValueAwareCache(2, value_fn=lambda k: values[k])
        cache.insert("a")
        cache.insert("b")
        cache.insert("c")  # evicts b (zero value) - model A semantics
        assert "b" not in cache and "a" in cache

    def test_value_rise_after_touch_is_revalidated_at_eviction(self):
        # "b" looks cheapest at touch time, but its value has risen by
        # eviction time: the lazy heap must re-score it and evict "a".
        values = {"a": 0.5, "b": 0.1, "c": 0.6}
        cache = ValueAwareCache(2, value_fn=lambda k: values[k])
        cache.insert("a")
        cache.insert("b")
        values["b"] = 0.9
        cache.insert("c")
        assert "b" in cache and "a" not in cache


class TestHeapVictimMatchesMinScan:
    """The lazy heaps must pick the exact victim the O(n) scan picked.

    Pin the full tie-break chain — including the scan's implicit final
    tie-break (first minimal entry in residency order) — by fuzzing a
    mixed op stream against a reference min() over live entry state.
    """

    def _reference_victim(self, cache, value_fn=None):
        if value_fn is None:
            rank = lambda e: (e.access_count, e.last_access_time, e.insert_time)
        else:
            rank = lambda e: (value_fn(e.key), e.last_access_time, e.insert_time)
        return min(cache._entries.values(), key=rank).key

    @staticmethod
    def _insert_evicting(cache, key, now):
        """Insert ``key`` into a full cache; return the evicted key."""
        before = set(cache)
        cache.insert(key, now=now)
        (victim,) = before - set(cache)
        return victim

    def test_lfu_fuzz_equivalence(self):
        rng = np.random.default_rng(1234)
        cache = LFUCache(8)
        for step in range(600):
            key = int(rng.integers(0, 24))
            now = float(step // 3)  # coarse clock -> frequent full ties
            if rng.random() < 0.5 and key in cache:
                cache.lookup(key, now=now)
            else:
                if len(cache) == 8 and key not in cache:
                    expected = self._reference_victim(cache)
                    assert self._insert_evicting(cache, key, now) == expected
                else:
                    cache.insert(key, now=now)

    def test_lfu_full_tie_breaks_by_residency_order(self):
        cache = LFUCache(3)
        for k in ("a", "b", "c"):
            cache.insert(k, now=0.0)  # identical count/times: full tie
        cache.insert("d", now=0.0)
        assert "a" not in cache and {"b", "c", "d"} <= set(cache)

    def test_value_aware_full_tie_breaks_by_residency_order(self):
        cache = ValueAwareCache(3, value_fn=lambda k: 0.5)
        for k in ("a", "b", "c"):
            cache.insert(k, now=0.0)
        cache.insert("d", now=0.0)
        assert "a" not in cache and {"b", "c", "d"} <= set(cache)

    def test_value_aware_stable_values_fuzz_equivalence(self):
        # With a value function that only changes on explicit re-ranks the
        # heap is exactly the min-scan; fuzz with ties everywhere.
        rng = np.random.default_rng(99)
        values = {k: float(rng.integers(0, 3)) / 2.0 for k in range(24)}
        cache = ValueAwareCache(8, value_fn=lambda k: values[k])
        for step in range(600):
            key = int(rng.integers(0, 24))
            now = float(step // 3)
            if rng.random() < 0.5 and key in cache:
                cache.lookup(key, now=now)
            else:
                if len(cache) == 8 and key not in cache:
                    expected = self._reference_victim(
                        cache, value_fn=lambda k: values[k]
                    )
                    assert self._insert_evicting(cache, key, now) == expected
                else:
                    cache.insert(key, now=now)

    def test_gds_keeps_push_order_tie_break(self):
        # GDS ties break by touch recency (not residency order): refreshing
        # "a" must push it behind untouched peers with equal H.
        cache = GreedyDualSizeCache(3)
        for k in ("a", "b", "c"):
            cache.insert(k)
        cache.lookup("a")
        cache.insert("d")
        assert "a" in cache and "b" not in cache
