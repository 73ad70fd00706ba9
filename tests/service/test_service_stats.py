"""ServiceStats totals, latency percentiles and the StatsCollector's atomicity."""

from __future__ import annotations

import pickle
import sys
import threading

import pytest

from repro.core.query import LCMSRQuery
from repro.service.cache import CacheStats
from repro.service.keys import ResultKey
from repro.service.stats import (
    LATENCY_NUM_BUCKETS,
    TIMING_HISTORY,
    LatencyHistogram,
    QueryTiming,
    ServiceStats,
    StatsCollector,
    StatTotals,
)


def _timing(index: int, result_hit: bool = False, instance_hit: bool = False,
            total_seconds: float = 1.0):
    return QueryTiming(
        key=ResultKey(LCMSRQuery((f"kw{index}",), 100.0 + index), "tgen",
                      bundle_key="fp:g0:o0", policy="exact"),
        result_cache_hit=result_hit,
        instance_cache_hit=instance_hit,
        build_seconds=0.25,
        solve_seconds=0.5,
        total_seconds=total_seconds,
    )


def _cache(hits: int, misses: int) -> CacheStats:
    return CacheStats(hits=hits, misses=misses, evictions=0, size=0, max_size=8)


def _sequential_totals(timings) -> StatTotals:
    """The totals of ``timings`` summed one at a time, in order: the oracle."""
    hits = [0, 0]
    seconds = [0.0, 0.0, 0.0]
    counts = [0] * LATENCY_NUM_BUCKETS
    for timing in timings:
        hits[0] += timing.result_cache_hit
        hits[1] += timing.instance_cache_hit
        seconds[0] += timing.build_seconds
        seconds[1] += timing.solve_seconds
        seconds[2] += timing.total_seconds
        counts[LatencyHistogram.bucket_index(timing.total_seconds)] += 1
    return StatTotals(len(timings), *hits, *seconds, LatencyHistogram(tuple(counts)))


def _histogram(samples) -> LatencyHistogram:
    """The latency histogram of a collector that recorded ``samples`` seconds."""
    return _snapshot([_timing(i, total_seconds=s)
                      for i, s in enumerate(samples)]).totals.latency


def _snapshot(timings, result_cache=None, instance_cache=None) -> ServiceStats:
    """A snapshot of a collector that recorded ``timings`` in order."""
    collector = StatsCollector()
    for timing in timings:
        collector.record(timing)
    return collector.snapshot(result_cache or _cache(0, 0), instance_cache or _cache(0, 0))


def test_totals_match_timing_derivation():
    timings = [_timing(0), _timing(1, result_hit=True), _timing(2, instance_hit=True)]
    stats = _snapshot(timings, _cache(1, 2), _cache(1, 1))
    totals = stats.totals
    assert totals == _sequential_totals(timings)
    assert totals.queries == 3
    assert totals.result_hits == 1
    assert totals.instance_hits == 1
    assert totals.total_seconds == 3.0
    assert stats.queries == 3
    assert stats.result_hit_rate == 1 / 3
    assert stats.mean_latency_seconds == 1.0


def test_stats_are_picklable():
    """Snapshots travel from worker processes to the gateway."""
    stats = _snapshot([_timing(0)], _cache(1, 0), _cache(0, 1))
    restored = pickle.loads(pickle.dumps(stats))
    assert restored.queries == 1
    assert restored.timings == stats.timings
    assert restored.totals == stats.totals


class TestLatencyHistogram:
    def test_bucket_index_clamps_both_ends(self):
        assert LatencyHistogram.bucket_index(0.0) == 0
        assert LatencyHistogram.bucket_index(1e-9) == 0
        assert LatencyHistogram.bucket_index(1e9) == LATENCY_NUM_BUCKETS - 1

    def test_percentile_is_within_bucket_resolution(self):
        """The reported percentile stays within ±6% of the true sample."""
        samples = [0.0005 * (i + 1) for i in range(200)]  # 0.5 ms … 100 ms
        histogram = _histogram(samples)
        assert histogram.total == len(samples)
        for q in (50.0, 95.0, 99.0):
            truth = sorted(samples)[max(0, int(q / 100.0 * len(samples)) - 1)]
            assert histogram.percentile(q) == pytest.approx(truth, rel=0.07)

    def test_percentile_rejects_out_of_range(self):
        histogram = _histogram([0.01])
        for bad in (-1.0, 100.5):
            with pytest.raises(ValueError):
                histogram.percentile(bad)

    def test_snapshot_percentile_properties(self):
        # 98 fast queries, one slow, one very slow: p50 ≈ 1 ms, p99 ≈ 2 s.
        timings = [_timing(i, total_seconds=0.001) for i in range(98)]
        timings.append(_timing(98, total_seconds=2.0))
        timings.append(_timing(99, total_seconds=20.0))
        stats = _snapshot(timings)
        assert stats.p50_latency_seconds == pytest.approx(0.001, rel=0.07)
        assert stats.p95_latency_seconds == pytest.approx(0.001, rel=0.07)
        assert stats.p99_latency_seconds == pytest.approx(2.0, rel=0.07)
        assert stats.latency_percentile(100.0) == pytest.approx(20.0, rel=0.07)

    def test_histograms_survive_pickling(self):
        totals = _sequential_totals(
            [_timing(i, total_seconds=0.01 * (i + 1)) for i in range(5)])
        restored = pickle.loads(pickle.dumps(totals))
        assert restored.latency == totals.latency
        assert restored.latency.percentile(50.0) == totals.latency.percentile(50.0)

    def test_reporting_renders_percentile_rows(self):
        from repro.evaluation import format_service_stats

        stats = _snapshot([_timing(0, total_seconds=0.02)], _cache(0, 1), _cache(0, 1))
        summary = format_service_stats(stats)
        assert "p50 latency (s)" in summary
        assert "p95 latency (s)" in summary
        assert "p99 latency (s)" in summary

    def test_collector_hammer_histogram_counts_every_query(self):
        """8 threads × 250 queries: the histogram never loses a sample."""
        collector = StatsCollector()
        threads_n, per_thread = 8, 250
        barrier = threading.Barrier(threads_n)
        # Each thread records a disjoint latency decade so the final histogram
        # composition is fully predictable.
        latencies = [10.0 ** (-4 + worker % 4) for worker in range(threads_n)]

        def pound(worker: int) -> None:
            barrier.wait()
            for i in range(per_thread):
                collector.record(
                    _timing(worker * per_thread + i,
                            total_seconds=latencies[worker]))

        threads = [threading.Thread(target=pound, args=(w,))
                   for w in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        snapshot = collector.snapshot(result_cache=_cache(0, 0),
                                      instance_cache=_cache(0, 0))
        expected = threads_n * per_thread
        assert snapshot.totals.latency.total == expected
        assert snapshot.totals.latency == _sequential_totals(snapshot.timings).latency
        # Two threads per decade -> p50 sits in the second decade (1 ms).
        assert snapshot.latency_percentile(50.0) == pytest.approx(1e-3, rel=0.07)
        assert snapshot.latency_percentile(99.0) == pytest.approx(0.1, rel=0.07)


def test_collector_hammer_no_dropped_counts():
    """Concurrent record() calls must never lose a count (read-modify-write race)."""
    collector = StatsCollector()
    threads_n, per_thread = 8, 200
    barrier = threading.Barrier(threads_n)

    def pound(worker: int) -> None:
        barrier.wait()
        for i in range(per_thread):
            collector.record(_timing(worker * per_thread + i,
                                     result_hit=(i % 2 == 0),
                                     instance_hit=(i % 4 == 0)))

    threads = [threading.Thread(target=pound, args=(w,)) for w in range(threads_n)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    snapshot = collector.snapshot(result_cache=_cache(0, 0), instance_cache=_cache(0, 0))
    expected = threads_n * per_thread
    assert snapshot.queries == expected
    assert len(snapshot.timings) == expected
    assert snapshot.result_hits == threads_n * (per_thread // 2)
    assert snapshot.instance_hits == threads_n * (per_thread // 4)
    assert snapshot.totals == _sequential_totals(snapshot.timings)
    # Exact float equality: totals are folded once per record, in order, under
    # the lock — identical accumulation to the sequential derivation above.
    assert snapshot.total_seconds == float(expected)


def test_collector_snapshot_is_consistent_under_reset():
    collector = StatsCollector()
    for i in range(5):
        collector.record(_timing(i))
    snapshot = collector.snapshot(result_cache=_cache(0, 0), instance_cache=_cache(0, 0))
    assert snapshot.queries == 5
    collector.reset()
    empty = collector.snapshot(result_cache=_cache(0, 0), instance_cache=_cache(0, 0))
    assert empty.queries == 0
    assert empty.timings == []
    assert empty.totals == StatTotals()
    assert empty.p50_latency_seconds == 0.0
    # The first snapshot froze its own copy: resetting did not mutate it.
    assert snapshot.queries == 5


def test_collector_snapshots_never_see_a_partial_record():
    """Snapshots taken while threads record always count exactly their timings.

    A lost update is rare on CPython (nothing in ``record`` yields between a
    counter's load and its store), but without the lock a snapshot can land
    between the timing append and the counter updates; a short switch
    interval and several rounds make that window likely to be hit.
    """
    collector = StatsCollector()
    # Each round records fewer than TIMING_HISTORY queries, so every snapshot
    # holds all of its round's timings.
    threads_n, per_thread, rounds = 2, 2000, 10
    watching = threading.Event()
    watching.set()
    torn = []

    def pound(worker: int) -> None:
        for i in range(per_thread):
            collector.record(_timing(worker * per_thread + i))

    def watch() -> None:
        while watching.is_set():
            snapshot = collector.snapshot(result_cache=_cache(0, 0),
                                          instance_cache=_cache(0, 0))
            if not snapshot.queries == snapshot.totals.latency.total == len(snapshot.timings):
                torn.append((snapshot.queries, len(snapshot.timings)))

    watcher = threading.Thread(target=watch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        watcher.start()
        for _ in range(rounds):
            workers = [threading.Thread(target=pound, args=(w,)) for w in range(threads_n)]
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in workers)
            final = collector.snapshot(result_cache=_cache(0, 0),
                                       instance_cache=_cache(0, 0))
            assert final.queries == threads_n * per_thread
            collector.reset()
    finally:
        watching.clear()
        watcher.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not watcher.is_alive()
    assert torn == []


def test_collector_keeps_the_latest_timings_and_counts_every_query():
    """The timing history is bounded; the totals and the histogram are not."""
    collector = StatsCollector()
    recorded = TIMING_HISTORY + 10
    timings = [_timing(i, result_hit=(i % 3 == 0), instance_hit=(i % 3 == 1))
               for i in range(recorded)]
    for timing in timings:
        collector.record(timing)
    snapshot = collector.snapshot(result_cache=_cache(0, 0), instance_cache=_cache(0, 0))
    assert isinstance(snapshot.timings, list)
    assert snapshot.timings == timings[-TIMING_HISTORY:]
    assert snapshot.queries == recorded
    assert snapshot.result_hits == len(range(0, recorded, 3))
    assert snapshot.instance_hits == len(range(1, recorded, 3))
    assert snapshot.totals.latency.total == recorded
