"""Tests for the batched concurrent QueryService.

The load-bearing guarantees: batch execution returns exactly what a sequential
loop over the engine returns, the cache accounting adds up, and concurrent
``submit_many`` calls are safe.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import pytest

import repro
from repro import LCMSREngine, QueryRequest, QueryService, Rectangle
from repro.core.dense import DenseInstance
from repro.core.result import TopKResult
from repro.evaluation import format_query_timings, format_service_stats
from repro.exceptions import QueryError


@pytest.fixture(scope="module")
def engine(tiny_ny_dataset):
    return LCMSREngine(tiny_ny_dataset.network, tiny_ny_dataset.corpus)


@pytest.fixture()
def service(engine):
    with QueryService(engine, max_workers=4) as svc:
        yield svc


def _mixed_requests(dataset):
    extent = dataset.extent
    window = Rectangle(extent.min_x, extent.min_y,
                       extent.min_x + 1500.0, extent.min_y + 1500.0)
    return [
        QueryRequest.create(["restaurant", "cafe"], 1200.0, algorithm="tgen"),
        QueryRequest.create(["cafe"], 900.0, algorithm="greedy"),
        QueryRequest.create(["restaurant"], 800.0, region=window, algorithm="greedy"),
        QueryRequest.create(["bar"], 1000.0, algorithm="app"),
        QueryRequest.create(["restaurant", "cafe"], 600.0, algorithm="tgen"),
    ]


class TestBatchSemantics:
    def test_batch_identical_to_sequential_loop(self, engine, service, tiny_ny_dataset):
        requests = _mixed_requests(tiny_ny_dataset)
        batch = service.run_batch(requests)
        sequential = [
            engine.query(r.keywords, r.delta, region=r.region, algorithm=r.algorithm)
            for r in requests
        ]
        assert len(batch) == len(sequential)
        for got, expected in zip(batch, sequential):
            assert got.algorithm == expected.algorithm
            assert got.region.nodes == expected.region.nodes
            assert got.weight == pytest.approx(expected.weight)
            assert got.length == pytest.approx(expected.length)

    def test_results_preserve_request_order(self, service, tiny_ny_dataset):
        requests = _mixed_requests(tiny_ny_dataset)
        results = service.run_batch(requests)
        expected_algorithms = [r.algorithm for r in requests]
        assert [r.algorithm.lower() for r in results] == expected_algorithms

    def test_topk_requests_route_to_topk(self, service):
        [result] = service.run_batch(
            [QueryRequest.create(["restaurant"], 1000.0, k=3, algorithm="tgen")]
        )
        assert isinstance(result, TopKResult)
        assert 1 <= len(result) <= 3

    def test_submit_returns_future(self, service):
        future = service.submit(QueryRequest.create(["cafe"], 700.0, algorithm="greedy"))
        result = future.result(timeout=30)
        assert result.weight >= 0.0

    def test_bad_request_raises_from_result(self, service):
        futures = service.submit_many(
            [QueryRequest.create(["cafe"], 700.0, algorithm="no-such-solver")]
        )
        with pytest.raises(QueryError):
            futures[0].result(timeout=30)

    def test_empty_keywords_rejected(self, service):
        with pytest.raises(QueryError):
            service.execute(QueryRequest.create([], 700.0))

    def test_closed_service_rejects_submissions(self, engine):
        service = QueryService(engine, max_workers=1)
        service.close()
        with pytest.raises(QueryError):
            service.submit(QueryRequest.create(["cafe"], 700.0))


class TestCaching:
    def test_repeat_query_hits_result_cache(self, engine):
        with QueryService(engine, max_workers=1) as service:
            request = QueryRequest.create(["restaurant"], 1000.0, algorithm="tgen")
            first = service.execute(request)
            second = service.execute(request)
            assert second is first  # the exact cached object
            stats = service.stats()
            assert stats.queries == 2
            assert stats.result_hits == 1
            assert stats.timings[0].result_cache_hit is False
            assert stats.timings[1].result_cache_hit is True

    def test_normalized_variants_share_cache_entry(self, engine):
        with QueryService(engine, max_workers=1) as service:
            a = service.execute(QueryRequest.create(["cafe", "Restaurant"], 1000.0))
            b = service.execute(QueryRequest.create(["restaurant", "cafe", "cafe"], 1000.0))
            assert b is a
            assert service.stats().result_hits == 1

    def test_delta_sweep_reuses_instance(self, engine):
        with QueryService(engine, max_workers=1) as service:
            for delta in (600.0, 800.0, 1000.0):
                service.execute(QueryRequest.create(["restaurant"], delta))
            stats = service.stats()
            assert stats.queries == 3
            assert stats.result_hits == 0          # three distinct answers
            assert stats.instance_hits == 2        # but one instance build
            assert stats.instance_cache.hits == 2
            assert stats.instance_cache.misses == 1

    def test_instance_reuse_changes_no_answers(self, engine):
        deltas = (600.0, 800.0, 1000.0)
        with QueryService(engine, max_workers=1) as service:
            cached = [
                service.execute(QueryRequest.create(["restaurant"], d, algorithm="tgen"))
                for d in deltas
            ]
        fresh = [engine.query(["restaurant"], d, algorithm="tgen") for d in deltas]
        for got, expected in zip(cached, fresh):
            assert got.region.nodes == expected.region.nodes

    def test_caches_can_be_disabled(self, engine):
        with QueryService(engine, max_workers=1, result_cache_size=0,
                          instance_cache_size=0) as service:
            request = QueryRequest.create(["restaurant"], 1000.0)
            service.execute(request)
            service.execute(request)
            stats = service.stats()
            assert stats.result_hits == 0
            assert stats.instance_hits == 0

    def test_clear_caches_forces_recompute(self, engine):
        with QueryService(engine, max_workers=1) as service:
            request = QueryRequest.create(["restaurant"], 1000.0)
            service.execute(request)
            service.clear_caches()
            service.execute(request)
            assert service.stats().result_hits == 0

    def test_accounting_adds_up(self, engine, tiny_ny_dataset):
        with QueryService(engine, max_workers=4) as service:
            requests = _mixed_requests(tiny_ny_dataset) * 3
            service.run_batch(requests)
            stats = service.stats()
            assert stats.queries == len(requests)
            misses = stats.queries - stats.result_hits
            assert stats.result_cache.lookups == stats.queries
            assert stats.result_cache.hits == stats.result_hits
            assert misses >= len(_mixed_requests(tiny_ny_dataset))
            assert stats.total_seconds >= stats.total_solve_seconds

    def test_configure_solver_invalidates_cached_results(self, tiny_ny_dataset):
        from repro.core.greedy import GreedySolver

        engine = LCMSREngine(tiny_ny_dataset.network, tiny_ny_dataset.corpus)
        with QueryService(engine, max_workers=1) as service:
            request = QueryRequest.create(["restaurant"], 1000.0, algorithm="greedy")
            first = service.execute(request)
            engine.configure_solver("greedy", GreedySolver(mu=0.9))
            second = service.execute(request)
            assert second is not first  # recomputed by the replaced solver
            assert service.stats().result_hits == 0

    def test_result_hit_does_not_count_as_instance_hit(self, engine):
        with QueryService(engine, max_workers=1) as service:
            request = QueryRequest.create(["restaurant"], 1000.0)
            service.execute(request)
            service.execute(request)
            stats = service.stats()
            assert stats.result_hits == 1
            assert stats.instance_hits == 0
            assert stats.instance_cache.lookups == 1  # only the first query probed

    def test_windowless_instances_share_engine_graph(self, engine):
        with QueryService(engine, max_workers=1) as service:
            service.execute(QueryRequest.create(["restaurant"], 1000.0))
            service.execute(QueryRequest.create(["cafe"], 1000.0))
            # Two distinct window-less keyword sets must not pin two full
            # network copies: every cached entry shares the engine's frozen
            # graph view (the bundle's CSR snapshot). Entries are
            # (substrate, sampling record) pairs, and a substrate's graph view
            # is the window snapshot itself.
            cache = service._instance_cache
            assert len(cache) == 2
            for key in cache.keys():
                substrate, sampling = cache.get(key)
                assert isinstance(substrate, DenseInstance)
                assert sampling is None
                assert substrate.graph_view() is engine.graph_view

    def test_reporting_renders(self, engine):
        with QueryService(engine, max_workers=1) as service:
            service.execute(QueryRequest.create(["restaurant"], 1000.0))
            service.execute(QueryRequest.create(["restaurant"], 1000.0))
            summary = format_service_stats(service.stats())
            assert "result-cache hit rate" in summary
            timings = format_query_timings(service.stats())
            assert "result-hit" in timings
            # limit=0 means "no rows", not "all rows" (timings[-0:] pitfall).
            assert "result-hit" not in format_query_timings(service.stats(), limit=0)
            assert "result-hit" in format_query_timings(service.stats(), limit=1)


class TestServingPath:
    def test_reference_twins_stay_off_the_serving_path(self):
        # A fresh interpreter answers one query per solver, a top-k query and
        # a sampled query through the service; the dict-loop reference module
        # must never be imported on the way.
        script = textwrap.dedent(
            """
            import sys
            from repro import (
                LCMSREngine, QueryPolicy, QueryRequest, QueryService, Rectangle,
            )
            from repro.datasets.ny import build_ny_like

            dataset = build_ny_like(rows=12, cols=12, block_size=120.0,
                                    num_objects=300, num_clusters=4, seed=3)
            engine = LCMSREngine(dataset.network, dataset.corpus)
            requests = [
                QueryRequest.create(["restaurant", "cafe"], 600.0, algorithm=name)
                for name in ("app", "tgen", "greedy")
            ]
            requests.append(QueryRequest.create(
                ["restaurant"], 400.0, region=Rectangle(100, 100, 400, 400),
                algorithm="exact"))
            requests.append(QueryRequest.create(
                ["restaurant"], 600.0, algorithm="greedy", k=3))
            requests.append(QueryRequest.create(
                ["restaurant"], 600.0, algorithm="tgen",
                policy=QueryPolicy.sampled(0.3)))
            with QueryService(engine, max_workers=1, result_cache_size=0) as service:
                for request in requests:
                    service.execute(request)
                    service.execute(request)  # an instance-cache hit
                assert service.stats().instance_hits >= len(requests)
            loaded = sorted(name for name in sys.modules if name.startswith("repro."))
            assert "repro.core.reference" not in loaded, loaded
            """
        )
        src = Path(repro.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        completed = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=300,
        )
        assert completed.returncode == 0, completed.stderr


class TestConcurrency:
    def test_concurrent_submit_many_smoke(self, engine, tiny_ny_dataset):
        base = _mixed_requests(tiny_ny_dataset)
        expected = {
            id(r): engine.query(r.keywords, r.delta, region=r.region,
                                algorithm=r.algorithm).region.nodes
            for r in base
        }
        errors = []
        with QueryService(engine, max_workers=4) as service:

            def submitter() -> None:
                try:
                    for result, request in zip(service.run_batch(base), base):
                        assert result.region.nodes == expected[id(request)]
                except Exception as exc:  # pragma: no cover - only on failure
                    errors.append(exc)

            threads = [threading.Thread(target=submitter) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            stats = service.stats()
            assert stats.queries == 6 * len(base)
            # After the warm-up, the steady state is all result-cache hits: at
            # most one miss per distinct request plus bounded duplicated work
            # from racing first-round workers.
            assert stats.result_hits >= stats.queries - len(base) * 4
