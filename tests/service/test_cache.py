"""Tests for the thread-safe LRU cache and its accounting."""

from __future__ import annotations

import threading

import pytest

from repro.service.cache import LRUCache


class TestBasics:
    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(max_size=-1)

    def test_get_put_roundtrip(self):
        cache = LRUCache(max_size=4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert len(cache) == 1

    def test_zero_capacity_disables_caching(self):
        cache = LRUCache(max_size=0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_clear_keeps_counters(self):
        cache = LRUCache(max_size=4)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        stats = cache.stats()
        assert len(cache) == 0
        assert stats.hits == 1


class TestEviction:
    def test_lru_entry_evicted_first(self):
        cache = LRUCache(max_size=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # "a" is now most recently used
        cache.put("c", 3)       # evicts "b"
        assert cache.get("a") == 1
        assert cache.get("b") is None
        assert cache.get("c") == 3
        assert cache.stats().evictions == 1

    def test_refresh_does_not_grow(self):
        cache = LRUCache(max_size=2)
        cache.put("a", 1)
        cache.put("a", 2)
        assert len(cache) == 1
        assert cache.get("a") == 2


class TestAccounting:
    def test_hit_miss_counters(self):
        cache = LRUCache(max_size=4)
        cache.put("a", 1)
        cache.get("a")
        cache.get("a")
        cache.get("missing")
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.lookups) == (2, 1, 3)


class TestConcurrency:
    def test_parallel_readers_and_writers(self):
        cache = LRUCache(max_size=32)
        errors = []

        def worker(worker_id: int) -> None:
            try:
                for i in range(300):
                    key = (worker_id * 7 + i) % 48
                    cache.put(key, key)
                    value = cache.get(key % 16)
                    assert value is None or value == key % 16
            except Exception as exc:  # pragma: no cover - only on failure
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(w,)) for w in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stats = cache.stats()
        assert stats.size <= 32
        assert stats.lookups == 8 * 300
