"""A small thread-safe LRU cache with hit/miss/eviction accounting.

The serving layer keeps two of these: one over full query results and one over built
problem instances. Both are read and written concurrently by the worker pool, so
every operation takes the cache's lock; the critical sections are a dictionary probe
or insert, orders of magnitude cheaper than the solver work they guard.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Optional


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time snapshot of a cache's accounting counters.

    Attributes:
        hits: Number of ``get`` calls that found their key.
        misses: Number of ``get`` calls that did not.
        evictions: Number of entries dropped to respect ``max_size``.
        size: Current number of entries.
        max_size: Configured capacity (0 disables the cache entirely).
    """

    hits: int
    misses: int
    evictions: int
    size: int
    max_size: int

    @property
    def lookups(self) -> int:
        """Total number of ``get`` calls."""
        return self.hits + self.misses

class LRUCache:
    """Least-recently-used cache safe for concurrent use.

    Args:
        max_size: Capacity in entries. ``0`` disables caching: every ``get`` misses
            and ``put`` is a no-op, which lets callers switch caching off without
            branching at every call site.

    Raises:
        ValueError: If ``max_size`` is negative.
    """

    def __init__(self, max_size: int = 256) -> None:
        if max_size < 0:
            raise ValueError(f"max_size must be >= 0, got {max_size}")
        self._max_size = max_size
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Return the cached value for ``key`` (and mark it most recently used).

        Args:
            key: The cache key.
            default: Returned (and a miss recorded) when the key is absent.

        Returns:
            The cached value, or ``default`` on a miss.
        """
        with self._lock:
            if key in self._data:
                self._hits += 1
                self._data.move_to_end(key)
                return self._data[key]
            self._misses += 1
            return default

    def put(self, key: Hashable, value: Any) -> None:
        """Insert or refresh an entry, evicting the LRU entry when over capacity."""
        if self._max_size == 0:
            return
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            while len(self._data) > self._max_size:
                self._data.popitem(last=False)
                self._evictions += 1

    def keys(self) -> list:
        """Return a snapshot of the cached keys, LRU first."""
        with self._lock:
            return list(self._data)

    def clear(self) -> None:
        """Drop every entry (accounting counters are preserved)."""
        with self._lock:
            self._data.clear()

    def stats(self) -> CacheStats:
        """Return a consistent snapshot of the accounting counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._data),
                max_size=self._max_size,
            )
