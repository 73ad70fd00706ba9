"""The batched, concurrent serving layer over :class:`~repro.engine.LCMSREngine`.

The engine answers one query at a time and rebuilds its problem instance from
scratch on every call. :class:`QueryService` turns it into a throughput-oriented
front end:

* **Batch API** — :meth:`QueryService.submit` / :meth:`QueryService.submit_many`
  hand queries to a worker pool and return futures; :meth:`QueryService.run_batch`
  is the blocking convenience that preserves request order.
* **Result cache** — an LRU over :class:`~repro.service.keys.ResultKey`, which
  holds the request's :class:`~repro.core.query.LCMSRQuery` as it is (the query
  normalised itself when the request was created): a repeated query is answered
  without touching the index or a solver.
* **Instance cache** — an LRU over :class:`~repro.service.keys.InstanceKey`: queries
  that share a keyword set and window (e.g. a ``∆``-sweep, or the same query under
  two algorithms) skip ``build_instance`` — the windowed subgraph extraction and the
  σ_v computation — and only pay for solving. Every entry is one
  ``(substrate, sampling record)`` pair: the instance's
  :class:`~repro.core.dense.DenseInstance` instead of the full
  :class:`~repro.core.instance.ProblemInstance` — the window's arrays only, no
  per-entry weight dict or graph (the dict view re-materialises lazily in the
  original order on demand), and picklable as-is — plus the
  :class:`~repro.textindex.columnar.SampledWeights` record of a sampled build
  (``None`` otherwise). Re-binding an entry to an incoming query is a
  constant-time wrap with its own window view; whatever lists a solve builds
  stay with that query, so an entry holds arrays only whichever solver ran
  on it.

Sharing built instances across workers is safe because solvers treat instances as
read-only (the evaluation runner has always shared one instance across solvers) and
the engine's :class:`~repro.service.bundle.IndexBundle` is immutable after
construction. The engine's solver registry is fixed at construction too; the one
runtime swap is a compaction's bundle swap, which the bundle generation in every
cache key covers. Two concurrent misses on the same key may both compute the answer —
the cache then keeps one of the two identical results; the service trades that small
duplicated effort for a lock-free hot path.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.anytime import QueryPolicy
from repro.core.instance import ProblemInstance
from repro.core.query import LCMSRQuery
from repro.core.result import RegionResult, TopKResult
from repro.exceptions import QueryError
from repro.network.subgraph import Rectangle
from repro.service.cache import LRUCache
from repro.service.keys import ResultKey
from repro.service.stats import QueryTiming, ServiceStats, StatsCollector

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports the bundle)
    from repro.engine import LCMSREngine

ServiceResult = Union[RegionResult, TopKResult]


@dataclass(frozen=True)
class QueryRequest:
    """One LCMSR query as submitted to the service.

    Attributes:
        query: The validated, normalised query ``Q = <ψ, ∆, Λ>`` with its
            ``k``; ``k > 1`` routes to the top-k variant and yields a
            :class:`~repro.core.result.TopKResult`. Execution and both cache
            keys use it as it is.
        algorithm: Solver name ("app", "tgen", "greedy", "exact"); the engine
            default when ``None``.
        policy: Per-query service level
            (:class:`~repro.core.anytime.QueryPolicy`); ``None`` means exact —
            the byte-identical legacy path. The policy rides along in cache
            keys (via its ``cache_token``), so an exact answer is never served
            from an approximate entry or vice versa.
    """

    query: LCMSRQuery
    algorithm: Optional[str] = None
    policy: Optional[QueryPolicy] = None

    @staticmethod
    def create(
        keywords: Iterable[str],
        delta: float,
        region: Optional[Rectangle] = None,
        algorithm: Optional[str] = None,
        k: int = 1,
        policy: Optional[QueryPolicy] = None,
    ) -> "QueryRequest":
        """Build a request from any keyword list.

        Raises:
            QueryError: When the query is malformed (no keywords, a bare
                string for the keyword list, ``∆`` negative or not finite,
                ``k < 1``) — here, before any service sees the request.
        """
        return QueryRequest(
            LCMSRQuery.create(keywords, delta=delta, region=region, k=int(k)),
            algorithm=algorithm,
            policy=policy,
        )


class QueryService:
    """High-throughput batched front end over one engine.

    Args:
        engine: The engine whose indexes (via its
            :class:`~repro.service.bundle.IndexBundle`) and solver registry serve
            the queries — or the path of a persisted index artifact (written by
            ``python -m repro build``), from which an engine is loaded via
            :meth:`LCMSREngine.from_artifact <repro.engine.LCMSREngine.from_artifact>`.
        max_workers: Worker-pool size for the batch API; defaults to
            ``min(8, cpu_count)``.
        result_cache_size: Capacity of the result LRU (0 disables result caching).
        instance_cache_size: Capacity of the instance LRU (0 disables instance
            reuse).

    Raises:
        QueryError: If ``max_workers`` is not positive.
        ArtifactError: If an artifact path was given and cannot be loaded.
    """

    def __init__(
        self,
        engine: Union["LCMSREngine", str, Path],
        max_workers: Optional[int] = None,
        result_cache_size: int = 512,
        instance_cache_size: int = 128,
    ) -> None:
        if max_workers is None:
            max_workers = min(8, os.cpu_count() or 2)
        if max_workers < 1:
            raise QueryError(f"max_workers must be >= 1, got {max_workers}")
        if isinstance(engine, (str, Path)):
            from repro.engine import LCMSREngine  # deferred: engine imports service

            engine = LCMSREngine.from_artifact(engine)
        self._engine = engine
        self._max_workers = max_workers
        self._result_cache = LRUCache(result_cache_size)
        self._instance_cache = LRUCache(instance_cache_size)
        self._collector = StatsCollector()
        self._pool_lock = threading.Lock()
        self._pool: Optional[ThreadPoolExecutor] = None
        self._closed = False
        self._generation_lock = threading.Lock()
        self._seen_generation = engine.bundle_generation

    # ------------------------------------------------------------------ lifecycle
    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Shut down the worker pool; subsequent submissions raise ``QueryError``."""
        with self._pool_lock:
            self._closed = True
            pool, self._pool = self._pool, None
        # Shut down outside the lock: a still-running task that calls submit()
        # blocks on the lock, and shutdown(wait=True) waits for that task —
        # holding the lock here would deadlock both.
        if pool is not None:
            pool.shutdown(wait=True)

    def _executor(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._closed:
                raise QueryError("the query service has been closed")
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self._max_workers,
                    thread_name_prefix="lcmsr-service",
                )
            return self._pool

    # ------------------------------------------------------------------ accessors
    def stats(self) -> ServiceStats:
        """Return an immutable snapshot of the per-query timings and cache counters."""
        return self._collector.snapshot(
            result_cache=self._result_cache.stats(),
            instance_cache=self._instance_cache.stats(),
        )

    def reset_stats(self) -> None:
        """Drop the per-query timing records (cache contents are kept)."""
        self._collector.reset()

    def clear_caches(self) -> None:
        """Empty both caches (timing records are kept)."""
        self._result_cache.clear()
        self._instance_cache.clear()

    def _invalidate_on_generation_change(self) -> None:
        """Drop every cache entry once a bundle (generation) swap is observed.

        Correctness does not depend on this — every key embeds the engine's
        ``bundle_cache_key``, so an entry from generation N can never be
        *served* for a generation-N+1 query — but without the sweep the
        retired entries would linger until LRU pressure evicted them. The
        double-checked lock keeps the hot path to one integer comparison.
        """
        generation = self._engine.bundle_generation
        if generation == self._seen_generation:
            return
        with self._generation_lock:
            if generation == self._seen_generation:
                return
            self._result_cache.clear()
            self._instance_cache.clear()
            self._seen_generation = generation

    # ------------------------------------------------------------------ execution
    def execute(self, request: QueryRequest) -> ServiceResult:
        """Serve one request synchronously on the calling thread.

        Args:
            request: The query to answer.

        Returns:
            A :class:`~repro.core.result.RegionResult` for ``k == 1`` requests, a
            :class:`~repro.core.result.TopKResult` otherwise — identical to what
            :meth:`LCMSREngine.query` / :meth:`LCMSREngine.query_topk` would return
            for the same arguments.

        Raises:
            QueryError: On an unknown algorithm. A malformed query never gets
                here: :meth:`QueryRequest.create` refuses it.
        """
        result, _ = self.execute_timed(request)
        return result

    def execute_timed(self, request: QueryRequest) -> Tuple[ServiceResult, QueryTiming]:
        """Serve one request and also return its recorded timing.

        The timing is the same :class:`~repro.service.stats.QueryTiming` that
        :meth:`execute` records in this service's collector — gateway worker
        processes (:mod:`repro.service.sharding`) use this to ship both the answer
        and the accounting back to the gateway in one picklable pair.
        """
        start = time.perf_counter()
        self._invalidate_on_generation_change()
        query = request.query
        # The bundle generation (in bundle_cache_key) must be read BEFORE the
        # bundle is used: if a concurrent swap_bundle lands in between, the
        # old answer gets stored under the old generation (harmless, never
        # served again) instead of the new one (permanently stale).
        policy = request.policy if request.policy is not None else QueryPolicy.exact()
        key = ResultKey(
            query=query,
            algorithm=(request.algorithm or self._engine.default_algorithm).lower(),
            bundle_key=self._engine.bundle_cache_key,
            policy=policy.cache_token(),
        )
        solver = self._engine.solver(request.algorithm)

        result = self._result_cache.get(key)
        result_hit = result is not None
        # A result hit never probes the instance cache, so it is not an
        # instance hit.
        instance_hit, build_seconds = False, 0.0
        if not result_hit:
            instance, instance_hit, build_seconds = self._instance_for(key, policy)
            result = self._engine.solve(
                solver, instance, policy, k=query.k if query.k > 1 else None
            )
            self._result_cache.put(key, result)
            # Close the insert-after-sweep race: an in-flight query that started
            # before a generation swap stores its (never-servable) old-generation
            # entry only to drop it here — so once every in-flight query has
            # drained, no entry keyed to a retired generation survives.
            if key.bundle_key != self._engine.bundle_cache_key:
                self._result_cache.clear()
                self._instance_cache.clear()
        timing = QueryTiming(
            key=key,
            result_cache_hit=result_hit,
            instance_cache_hit=instance_hit,
            build_seconds=build_seconds,
            solve_seconds=0.0 if result_hit else result.runtime_seconds,
            total_seconds=time.perf_counter() - start,
        )
        self._collector.record(timing)
        return result, timing

    def _instance_for(
        self, key: ResultKey, policy: QueryPolicy
    ) -> Tuple[ProblemInstance, bool, float]:
        """Fetch or build the problem instance for a query, by its instance key.

        Returns:
            ``(instance, was_cache_hit, build_seconds)``. A cached
            ``(substrate, sampling record)`` entry is re-bound to the incoming
            query (``∆`` / ``k`` differ between queries that legitimately share
            a window graph and weights); the sampling record keeps the variances
            a sampled answer's CI is computed from.
        """
        instance_key = key.instance_key
        cached = self._instance_cache.get(instance_key)
        if cached is not None:
            substrate, sampling = cached
            rebound = substrate.to_problem_instance(key.query, sampling=sampling)
            return rebound, True, 0.0
        # Window-less instances already share the engine's graph view (the
        # instance builder stopped copying the network), so caching them pins no
        # extra graph memory; windowed instances carry their own (compact) view.
        instance = self._engine.build_instance(key.query, policy=policy)
        self._instance_cache.put(instance_key, (instance.dense, instance.sampling))
        return instance, False, instance.build_seconds

    # ------------------------------------------------------------------ batch API
    def submit(self, request: QueryRequest) -> "Future[ServiceResult]":
        """Enqueue one request on the worker pool and return its future.

        Raises:
            QueryError: If the service has been closed (including a concurrent
                ``close`` racing the submission).
        """
        try:
            return self._executor().submit(self.execute, request)
        except RuntimeError as exc:  # pool shut down between _executor() and submit
            raise QueryError("the query service has been closed") from exc

    def submit_many(
        self, requests: Sequence[QueryRequest]
    ) -> List["Future[ServiceResult]"]:
        """Enqueue a batch of requests; futures are returned in request order.

        Raises:
            QueryError: If the service has been closed.
        """
        executor = self._executor()
        try:
            return [executor.submit(self.execute, request) for request in requests]
        except RuntimeError as exc:
            raise QueryError("the query service has been closed") from exc

    def run_batch(self, requests: Sequence[QueryRequest]) -> List[ServiceResult]:
        """Execute a batch concurrently and return results in request order.

        Args:
            requests: The queries to answer.

        Returns:
            One result per request, positionally aligned with ``requests`` — the
            same answers a sequential loop over :meth:`LCMSREngine.query` would
            produce.

        Raises:
            QueryError: Re-raised from the first failing request, if any.
        """
        futures = self.submit_many(requests)
        return [future.result() for future in futures]
