"""Serving layer: batched concurrent query execution with caching.

This subpackage turns the one-query-at-a-time :class:`~repro.engine.LCMSREngine`
into a high-throughput service:

* :class:`IndexBundle` — the engine's query-independent index state (CSR
  network, corpus, columnar scoring index — which also holds the object
  mapping), built once and shared immutably across engines and worker threads.
* :class:`QueryService` — the batch front end: ``submit`` / ``submit_many`` /
  ``run_batch`` over a worker pool, an LRU result cache and an LRU instance
  cache that lets repeated keyword sets skip ``build_instance`` and subgraph
  extraction. Each :class:`QueryRequest` carries one validated
  :class:`~repro.core.query.LCMSRQuery`, and both cache keys
  (:class:`ResultKey`, :class:`InstanceKey`) hold it as it is.
* :class:`LRUCache` / :class:`CacheStats` — the thread-safe cache primitive.
* :class:`ServiceStats` / :class:`QueryTiming` — per-query timing and aggregate
  accounting, which a :class:`StatsCollector` counts in place, rendered by
  :func:`repro.evaluation.reporting.format_service_stats`.
* :mod:`repro.service.persist` — versioned on-disk index artifacts:
  :func:`save_bundle` / :func:`load_bundle` (mmap-backed), the
  :class:`ArtifactManifest` with checksums and a dataset fingerprint, behind
  the ``python -m repro`` CLI.
* :mod:`repro.service.sharding` — sharded multi-process serving:
  :func:`build_shards` partitions an artifact into tile shards with halo
  edges, :class:`ShardRouter` maps each window to the one shard whose extent
  contains it, and :class:`ShardedQueryService` is the gateway that
  dispatches each query there over one pipe per worker process, to the
  worker holding the fewest requests, with admission control —
  byte-identical to the unsharded engine. A gateway serves the generation
  ``CURRENT`` names when it opens; a dead worker fails only the requests it
  held and is replaced.
* :mod:`repro.service.generations` — the mutable world: :class:`DeltaOverlay`
  records add / update / remove / rating mutations over a frozen bundle and
  merges them into node weights at query time; :class:`Compactor` re-freezes
  base + delta into a new ``gen-NNNN/`` artifact generation and swaps it into
  the live engine; :func:`resolve_generation` follows the ``CURRENT`` pointer.

Serving state is fixed at construction, with one exception: a compaction swaps
the engine's bundle (:meth:`~repro.engine.LCMSREngine.swap_bundle`), and the
bundle generation that every cache key carries retires the old world's entries.
"""

from repro.service.bundle import IndexBundle
from repro.service.cache import CacheStats, LRUCache
from repro.service.keys import InstanceKey, ResultKey
from repro.service.persist import (
    FORMAT_VERSION,
    ArtifactManifest,
    dataset_fingerprint,
    load_bundle,
    read_manifest,
    save_bundle,
    verify_artifact,
)
from repro.service.query_service import QueryRequest, QueryService, ServiceResult
from repro.service.generations import (
    CURRENT_NAME,
    DELTA_LOG_NAME,
    GENERATION_PREFIX,
    CompactionReport,
    Compactor,
    DeltaOverlay,
    append_delta_ops,
    apply_op,
    apply_ops,
    generation_dirs,
    next_generation_name,
    overlay_from_delta_log,
    read_delta_log,
    resolve_generation,
    set_current_generation,
    write_delta_log,
)
from repro.service.sharding import (
    ShardedQueryService,
    ShardInfo,
    ShardRouter,
    ShardSetManifest,
    WorkerConfig,
    build_shards,
    load_shard_set,
)
from repro.service.stats import QueryTiming, ServiceStats, StatsCollector

__all__ = [
    "IndexBundle",
    "ArtifactManifest",
    "FORMAT_VERSION",
    "save_bundle",
    "load_bundle",
    "read_manifest",
    "verify_artifact",
    "dataset_fingerprint",
    "QueryService",
    "QueryRequest",
    "ServiceResult",
    "LRUCache",
    "CacheStats",
    "InstanceKey",
    "ResultKey",
    "QueryTiming",
    "ServiceStats",
    "StatsCollector",
    "ShardedQueryService",
    "ShardInfo",
    "ShardRouter",
    "ShardSetManifest",
    "WorkerConfig",
    "build_shards",
    "load_shard_set",
    "DeltaOverlay",
    "Compactor",
    "CompactionReport",
    "CURRENT_NAME",
    "DELTA_LOG_NAME",
    "GENERATION_PREFIX",
    "append_delta_ops",
    "apply_op",
    "apply_ops",
    "generation_dirs",
    "next_generation_name",
    "overlay_from_delta_log",
    "read_delta_log",
    "resolve_generation",
    "set_current_generation",
    "write_delta_log",
]
