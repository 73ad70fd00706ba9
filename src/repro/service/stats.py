"""Per-query timing records and aggregate serving statistics.

Each query the :class:`~repro.service.query_service.QueryService` executes produces
one :class:`QueryTiming`; :class:`ServiceStats` aggregates them together with the two
caches' counters. ``evaluation.reporting`` renders these as the same fixed-width
tables the benchmark figures use (:func:`repro.evaluation.reporting.format_service_stats`).

Multi-process serving (:class:`~repro.service.sharding.ShardedQueryService`)
needs every record to be picklable: each worker returns a request's
:class:`QueryTiming` beside its answer, and the gateway records it into its own
:class:`StatsCollector` as the request completes, so the gateway's snapshot
covers every worker's queries without combining per-worker snapshots.

The aggregate totals are carried explicitly in :class:`StatTotals` rather than
re-derived from the timing list: :class:`StatsCollector` adds each timing's
counters and its latency bucket to its own running counts, in place, inside the
same critical section that appends the timing record, so a snapshot can never
observe a timing whose counts are missing (or vice versa). A snapshot freezes
those counts into a :class:`StatTotals` with its :class:`LatencyHistogram`. The
collector keeps only the most recent :data:`TIMING_HISTORY` timing records, so
a long-running service uses bounded memory; the totals and the latency
histogram still count every query.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Tuple

from repro.service.cache import CacheStats
from repro.service.keys import ResultKey

LATENCY_BUCKET_MIN_SECONDS = 1e-6
"""Lower edge of the first latency bucket (1 µs); faster queries land there too."""

LATENCY_BUCKETS_PER_DECADE = 20
"""Log-bucket resolution: 20 buckets per decade ≈ ±6% relative error."""

LATENCY_NUM_BUCKETS = 9 * LATENCY_BUCKETS_PER_DECADE + 1
"""Buckets covering 1 µs … 1000 s, plus one overflow bucket at the top."""

TIMING_HISTORY = 4096
"""How many of the most recent :class:`QueryTiming` records a collector keeps."""


@dataclass(frozen=True)
class LatencyHistogram:
    """Fixed log-spaced latency buckets: a percentile estimate of bounded size.

    Percentiles over every served query need an aggregate that grows without
    holding every sample: a collector adds one to a query's bucket, in place,
    so concurrent records land in any order on the same counts (unlike
    reservoir sampling). The price is quantisation: a reported percentile is
    the geometric midpoint of its bucket, within ±6% of the true order
    statistic at 20 buckets per decade.
    """

    counts: Tuple[int, ...] = (0,) * LATENCY_NUM_BUCKETS

    @staticmethod
    def bucket_index(seconds: float) -> int:
        """Map a latency to its bucket (clamped at both ends)."""
        if seconds <= LATENCY_BUCKET_MIN_SECONDS:
            return 0
        index = int(
            math.log10(seconds / LATENCY_BUCKET_MIN_SECONDS)
            * LATENCY_BUCKETS_PER_DECADE
        )
        return min(index, LATENCY_NUM_BUCKETS - 1)

    @property
    def total(self) -> int:
        """Number of recorded samples."""
        return sum(self.counts)

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-th percentile latency in seconds (0.0 when empty).

        Returns the geometric midpoint of the bucket holding the rank-``q``
        sample — an order-statistic estimate within the bucket resolution.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        total = self.total
        if total == 0:
            return 0.0
        rank = max(1, math.ceil(q / 100.0 * total))
        cumulative = 0
        for index, count in enumerate(self.counts):
            cumulative += count
            if cumulative >= rank:
                return LATENCY_BUCKET_MIN_SECONDS * 10.0 ** (
                    (index + 0.5) / LATENCY_BUCKETS_PER_DECADE
                )
        return LATENCY_BUCKET_MIN_SECONDS * 10.0 ** (  # pragma: no cover
            len(self.counts) / LATENCY_BUCKETS_PER_DECADE
        )


@dataclass(frozen=True)
class QueryTiming:
    """The cost breakdown of one query served by the service.

    Attributes:
        key: The result key the query executed under (its query and resolved
            solver name).
        result_cache_hit: ``True`` when the answer came straight from the result
            cache (build and solve times are then 0).
        instance_cache_hit: ``True`` when the problem instance was reused from the
            instance cache (build time is then 0).
        build_seconds: Time spent building the problem instance (index probe +
            window extraction); 0 on any cache hit.
        solve_seconds: Time spent inside the solver; 0 on a result-cache hit.
        total_seconds: End-to-end service time for this query, including key
            construction and cache probes.
    """

    key: ResultKey
    result_cache_hit: bool
    instance_cache_hit: bool
    build_seconds: float
    solve_seconds: float
    total_seconds: float


@dataclass(frozen=True)
class StatTotals:
    """Exact aggregate counters over a set of served queries.

    A :class:`StatsCollector` snapshot freezes its running counts into one.
    """

    queries: int = 0
    result_hits: int = 0
    instance_hits: int = 0
    build_seconds: float = 0.0
    solve_seconds: float = 0.0
    total_seconds: float = 0.0
    latency: LatencyHistogram = field(default_factory=LatencyHistogram)


@dataclass(frozen=True)
class ServiceStats:
    """An immutable snapshot of a service's accumulated accounting.

    Attributes:
        timings: One record per executed query, in completion order; a
            collector's snapshot holds its most recent :data:`TIMING_HISTORY`.
        result_cache: Snapshot of the result cache's counters.
        instance_cache: Snapshot of the instance cache's counters.
        totals: Exact aggregate counters (see :class:`StatTotals`).
    """

    timings: List[QueryTiming]
    result_cache: CacheStats
    instance_cache: CacheStats
    totals: StatTotals

    @property
    def queries(self) -> int:
        """Number of queries served."""
        return self.totals.queries

    @property
    def result_hits(self) -> int:
        """Queries answered straight from the result cache."""
        return self.totals.result_hits

    @property
    def instance_hits(self) -> int:
        """Queries that reused a cached problem instance."""
        return self.totals.instance_hits

    @property
    def total_build_seconds(self) -> float:
        """Total instance-build time across all served queries."""
        return self.totals.build_seconds

    @property
    def total_solve_seconds(self) -> float:
        """Total solver time across all served queries."""
        return self.totals.solve_seconds

    @property
    def total_seconds(self) -> float:
        """Total end-to-end service time across all served queries."""
        return self.totals.total_seconds

    @property
    def mean_latency_seconds(self) -> float:
        """Mean end-to-end latency per query (0.0 when no queries ran)."""
        return self.total_seconds / self.queries if self.queries else 0.0

    def latency_percentile(self, q: float) -> float:
        """The ``q``-th percentile end-to-end latency in seconds (0.0 when empty).

        Read from the totals' :class:`LatencyHistogram`, so the value is
        quantised to the histogram's bucket resolution (±6%).
        """
        return self.totals.latency.percentile(q)

    @property
    def p50_latency_seconds(self) -> float:
        """Median end-to-end latency."""
        return self.latency_percentile(50.0)

    @property
    def p95_latency_seconds(self) -> float:
        """95th-percentile end-to-end latency."""
        return self.latency_percentile(95.0)

    @property
    def p99_latency_seconds(self) -> float:
        """99th-percentile end-to-end latency."""
        return self.latency_percentile(99.0)

    @property
    def result_hit_rate(self) -> float:
        """Fraction of queries answered from the result cache."""
        return self.result_hits / self.queries if self.queries else 0.0


class StatsCollector:
    """Mutable, lock-protected accumulator behind a service's ``stats()`` call.

    :meth:`record` appends the timing and adds its counters and its latency
    bucket to the running counts inside one critical section, so concurrent
    calls can never interleave a partial update (the hammer tests in
    ``tests/service/test_service_stats.py`` pound on this). The counts cover
    every recorded query; the timing records are the most recent
    :data:`TIMING_HISTORY` of them, so while fewer have been recorded every
    snapshot's ``totals`` match its ``timings`` exactly.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._timings: Deque[QueryTiming] = deque(maxlen=TIMING_HISTORY)
        self.reset()

    def record(self, timing: QueryTiming) -> None:
        """Record one query's timing and add it to the counts (atomically)."""
        bucket = LatencyHistogram.bucket_index(timing.total_seconds)
        with self._lock:
            self._timings.append(timing)
            self._queries += 1
            self._result_hits += timing.result_cache_hit
            self._instance_hits += timing.instance_cache_hit
            self._build_seconds += timing.build_seconds
            self._solve_seconds += timing.solve_seconds
            self._total_seconds += timing.total_seconds
            self._latency[bucket] += 1

    def reset(self) -> None:
        """Drop all recorded timings and zero the counts."""
        with self._lock:
            self._timings.clear()
            self._queries = self._result_hits = self._instance_hits = 0
            self._build_seconds = self._solve_seconds = self._total_seconds = 0.0
            self._latency = [0] * LATENCY_NUM_BUCKETS

    def snapshot(
        self, result_cache: CacheStats, instance_cache: CacheStats
    ) -> ServiceStats:
        """Freeze the current state into an immutable :class:`ServiceStats`."""
        with self._lock:
            timings = list(self._timings)
            totals = StatTotals(
                queries=self._queries,
                result_hits=self._result_hits,
                instance_hits=self._instance_hits,
                build_seconds=self._build_seconds,
                solve_seconds=self._solve_seconds,
                total_seconds=self._total_seconds,
                latency=LatencyHistogram(tuple(self._latency)),
            )
        return ServiceStats(
            timings=timings,
            result_cache=result_cache,
            instance_cache=instance_cache,
            totals=totals,
        )
