"""Serving-layer throughput: thread batching, cache reuse and process scaling.

Not a paper figure — this benchmarks the ``repro.service`` scale-out layer added on
top of the paper's single-query engine. Three claims are exercised:

1. **Throughput**: a warm-cache batch of repeated queries through
   :class:`~repro.service.QueryService` sustains at least 2× the queries/sec of the
   sequential cold-path loop (``engine.query`` per request, every instance rebuilt).
2. **Fidelity**: batching and caching change *no answers* — the batch output is
   result-identical to the sequential loop, request by request.
3. **Process scaling**: the multi-process
   :class:`~repro.service.sharding.ShardedQueryService` gateway over a shared mmap
   artifact reaches at least 2× the batch throughput with 4 worker processes vs 1
   (caches disabled, so every query pays its full solve cost), with every answer
   bit-identical across worker counts and to the in-process reference. Each
   process count is timed as the median of ``TIMED_BATCHES`` batches: one batch
   takes well under a second, so a single one swings with the host. Set
   ``REPRO_BENCH_JSON=<path>`` (the ``make bench-json`` target does) to record the
   measured rows.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_service_throughput.py -q -s
"""

from __future__ import annotations

import json
import os
import statistics
import time
from typing import List, Sequence

from repro import LCMSREngine, QueryRequest, QueryService
from repro.evaluation.reporting import format_service_stats, format_table

from benchmarks.conftest import FULL_SCALE, SMOKE_SCALE

ALGORITHM = "tgen"
REPEAT_FACTOR = 8  # each distinct query appears this many times in a batch


def _distinct_requests(workload) -> List[QueryRequest]:
    """Turn a generated query workload into service requests."""
    return [
        QueryRequest.create(q.keywords, q.delta, region=q.region, algorithm=ALGORITHM)
        for q in workload
    ]


def _tile(requests: Sequence[QueryRequest], total: int) -> List[QueryRequest]:
    """Repeat a request list round-robin up to ``total`` entries (a hot workload)."""
    return [requests[i % len(requests)] for i in range(total)]


def _sequential_cold(engine: LCMSREngine, requests: Sequence[QueryRequest]):
    """The pre-service serving path: one query at a time, no reuse anywhere."""
    results = []
    start = time.perf_counter()
    for r in requests:
        q = r.query
        results.append(
            engine.query(q.keywords, q.delta, region=q.region, algorithm=r.algorithm)
        )
    return results, time.perf_counter() - start


def test_bench_warm_batch_vs_sequential_cold(ny_dataset, ny_default_workload):
    engine = LCMSREngine(ny_dataset.network, ny_dataset.corpus)
    distinct = _distinct_requests(ny_default_workload)
    requests = _tile(distinct, len(distinct) * REPEAT_FACTOR)

    sequential_results, cold_seconds = _sequential_cold(engine, requests)
    cold_qps = len(requests) / cold_seconds

    with QueryService(engine, max_workers=4) as service:
        service.run_batch(requests)  # warm both caches
        service.reset_stats()
        start = time.perf_counter()
        batch_results = service.run_batch(requests)
        warm_seconds = time.perf_counter() - start
        warm_qps = len(requests) / warm_seconds
        stats = service.stats()

    print()
    print(format_table(
        ["path", "queries", "seconds", "queries/sec"],
        [
            ["sequential cold loop", len(requests), cold_seconds, cold_qps],
            ["warm-cache batch", len(requests), warm_seconds, warm_qps],
        ],
        title=f"warm batch vs cold loop (speedup {warm_qps / cold_qps:.1f}x)",
    ))
    print(format_service_stats(stats))

    # Fidelity: batching + caching must not change a single answer.
    assert len(batch_results) == len(sequential_results)
    for got, expected in zip(batch_results, sequential_results):
        assert got.region.nodes == expected.region.nodes
        assert abs(got.weight - expected.weight) < 1e-9
        assert abs(got.length - expected.length) < 1e-9

    # Throughput: the acceptance bar is 2x; a fully warm cache clears it by far.
    assert stats.result_hit_rate == 1.0
    assert warm_qps >= 2.0 * cold_qps, (
        f"warm batch {warm_qps:.1f} q/s vs cold loop {cold_qps:.1f} q/s"
    )


def test_bench_throughput_vs_batch_size(ny_dataset, ny_default_workload):
    engine = LCMSREngine(ny_dataset.network, ny_dataset.corpus)
    distinct = _distinct_requests(ny_default_workload)

    workers = 4
    rows = []
    for batch_size in (4, 8, 16, 32, 64):
        requests = _tile(distinct, batch_size)
        with QueryService(engine, max_workers=workers) as service:
            start = time.perf_counter()
            service.run_batch(requests)
            seconds = time.perf_counter() - start
            stats = service.stats()
        misses = stats.queries - stats.result_hits
        rows.append([
            batch_size,
            batch_size / seconds,
            stats.result_hit_rate,
            misses,
            stats.instance_hits,
            seconds,
        ])
        # The service does not coalesce concurrent misses on one key, so how
        # many copies of a query miss depends on thread timing. What holds
        # for every interleaving: each distinct query misses at least once,
        # and each worker misses it at most once, since a worker caches an
        # answer before its next lookup and the 512-entry result cache evicts
        # nothing at these batch sizes.
        distinct_in_batch = len(set(requests))
        assert distinct_in_batch <= misses <= workers * distinct_in_batch, (
            f"batch of {batch_size}: {misses} misses on {distinct_in_batch} "
            f"distinct queries through {workers} workers"
        )

    print()
    print(format_table(
        ["batch size", "queries/sec", "result hit rate", "result misses",
         "instance hits", "seconds"],
        rows,
        title="cold-start service throughput vs batch size "
              f"({len(distinct)} distinct queries, {ALGORITHM})",
    ))
    # Larger batches repeat the same distinct queries, so throughput rises
    # with batch size.
    assert rows[-1][1] > rows[0][1]


def test_bench_delta_sweep_instance_reuse(ny_dataset, ny_default_workload):
    """A ∆-sweep over one keyword set: the instance cache removes the build cost."""
    engine = LCMSREngine(ny_dataset.network, ny_dataset.corpus)
    base = ny_default_workload[0]
    deltas = [base.delta * f for f in (0.25, 0.5, 0.75, 1.0, 1.25, 1.5)]
    requests = [
        QueryRequest.create(base.keywords, d, region=base.region, algorithm=ALGORITHM)
        for d in deltas
    ]

    with QueryService(engine, max_workers=1) as service:
        service.run_batch(requests)
        stats = service.stats()

    print()
    print(format_table(
        ["measure", "value"],
        [
            ["sweep points", len(requests)],
            ["instance builds", stats.instance_cache.misses],
            ["instance reuses", stats.instance_hits],
            ["total build (s)", stats.total_build_seconds],
            ["total solve (s)", stats.total_solve_seconds],
        ],
        title="delta sweep over one keyword set",
    ))
    assert stats.instance_cache.misses == 1
    assert stats.instance_hits == len(requests) - 1


# ---------------------------------------------------------------- process scaling
MIN_PROCESS_SPEEDUP = 2.0
PROCESS_COUNTS = (1, 2, 4)
TIMED_BATCHES = 7
try:
    AVAILABLE_CPUS = len(os.sched_getaffinity(0))
except AttributeError:  # pragma: no cover - non-Linux fallback
    AVAILABLE_CPUS = os.cpu_count() or 1


def _result_signature(result) -> tuple:
    """A bit-exact identity key for one answer (region sets + exact scores)."""
    from repro.core.result import TopKResult

    if isinstance(result, TopKResult):
        return tuple(
            (r.region.nodes, r.region.edges, r.weight, r.length) for r in result
        )
    return (result.region.nodes, result.region.edges, result.weight, result.length)


def test_bench_process_scaling(ny_dataset, ny_default_workload, tmp_path):
    """4 worker processes must clear 2x the 1-process batch throughput."""
    from repro.service.bundle import IndexBundle
    from repro.service.sharding import ShardedQueryService

    artifact = tmp_path / "artifact"
    bundle = IndexBundle.from_dataset(ny_dataset)
    bundle.save(artifact)

    # Distinct solve-heavy requests: every (keywords, region) pair runs at a few
    # different budgets so nothing is answerable from a cache even in principle
    # (caches are disabled below — every query pays instance build + solve).
    distinct = _distinct_requests(ny_default_workload)
    factors = (0.5, 0.75, 1.0, 1.25)
    requests = [
        QueryRequest.create(
            r.query.keywords, r.query.delta * f, region=r.query.region,
            algorithm=ALGORITHM,
        )
        for r in distinct
        for f in factors
    ]
    total = 16 if SMOKE_SCALE else 32
    requests = _tile(requests, total)

    reference_engine = LCMSREngine.from_artifact(artifact)
    with QueryService(
        reference_engine, max_workers=1, result_cache_size=0, instance_cache_size=0
    ) as reference:
        expected = [_result_signature(r) for r in reference.run_batch(requests)]

    rows = []
    records = []
    qps_by_procs = {}
    for procs in PROCESS_COUNTS:
        with ShardedQueryService(
            artifact,
            num_workers=procs,
            result_cache_size=0,
            instance_cache_size=0,
            preload_base=True,
        ) as service:
            service.run_batch(requests)  # spawn + warm every worker process
            service.reset_stats()
            times = []
            for _ in range(TIMED_BATCHES):
                start = time.perf_counter()
                results = service.run_batch(requests)
                times.append(time.perf_counter() - start)
                got = [_result_signature(r) for r in results]
                assert got == expected, f"answers changed with {procs} worker process(es)"
            stats = service.stats()
        assert stats.queries == TIMED_BATCHES * len(requests)
        seconds = statistics.median(times)
        qps = len(requests) / seconds
        qps_by_procs[procs] = qps
        speedup = qps / qps_by_procs[PROCESS_COUNTS[0]]
        rows.append([procs, len(requests), seconds, qps, f"{speedup:.2f}x"])
        records.append({
            "processes": procs,
            "queries": len(requests),
            "timed_batches": TIMED_BATCHES,
            "seconds": seconds,
            "queries_per_second": qps,
            "speedup_vs_1": speedup,
            "identical_to_reference": True,
        })

    print()
    print(format_table(
        ["processes", "queries", "seconds", "queries/sec", "speedup"],
        rows,
        title="sharded gateway batch throughput vs worker processes "
              f"({ALGORITHM}, caches off, median of {TIMED_BATCHES} batches)",
    ))

    json_path = os.environ.get("REPRO_BENCH_JSON")
    if json_path:
        payload = {}
        if os.path.exists(json_path):
            try:
                with open(json_path, "r", encoding="utf-8") as handle:
                    payload = json.load(handle)
            except (OSError, ValueError):
                payload = {}
        payload.setdefault("benchmark", "bench_service_throughput")
        payload["smoke"] = SMOKE_SCALE
        payload["full"] = FULL_SCALE
        payload["available_cpus"] = AVAILABLE_CPUS
        payload["scaling_bar_asserted"] = not SMOKE_SCALE and AVAILABLE_CPUS >= 4
        payload["process_scaling"] = records
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {json_path}")

    if SMOKE_SCALE:
        # Smoke scale asserts identity (above) and records the numbers; the 2x
        # bar is a claim about the full-size workload.
        return
    if AVAILABLE_CPUS < 4:
        # The scaling bar is a claim about hardware parallelism: on fewer than
        # 4 schedulable cores, 4 processes time-slice one core and can only
        # tie (plus IPC overhead). Identity was still asserted above and the
        # measured rows (with the core count) are recorded in the JSON.
        print(f"scaling bar skipped: only {AVAILABLE_CPUS} schedulable core(s)")
        return
    assert qps_by_procs[4] >= MIN_PROCESS_SPEEDUP * qps_by_procs[1], (
        f"4 processes reached {qps_by_procs[4]:.1f} q/s vs "
        f"{qps_by_procs[1]:.1f} q/s with 1 — below the "
        f"{MIN_PROCESS_SPEEDUP:.0f}x scaling bar"
    )
