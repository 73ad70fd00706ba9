"""Serving layer: batched concurrent query execution with caching.

This subpackage turns the one-query-at-a-time :class:`~repro.engine.LCMSREngine`
into a high-throughput service:

* :class:`IndexBundle` — the engine's query-independent index state (CSR
  network, corpus, object mapping, columnar scoring index), built once and
  shared immutably across engines and worker threads.
* :class:`QueryService` — the batch front end: ``submit`` / ``submit_many`` /
  ``run_batch`` over a worker pool, an LRU result cache keyed on normalized query
  parameters, and an LRU instance cache that lets repeated keyword sets skip
  ``build_instance`` and subgraph extraction.
* :class:`LRUCache` / :class:`CacheStats` — the thread-safe cache primitive.
* :class:`ServiceStats` / :class:`QueryTiming` — per-query timing and aggregate
  accounting, rendered by :func:`repro.evaluation.reporting.format_service_stats`.
* :mod:`repro.service.persist` — versioned on-disk index artifacts:
  :func:`save_bundle` / :func:`load_bundle` (mmap-backed), the
  :class:`ArtifactManifest` with checksums and a dataset fingerprint, and the
  artifact cache behind the evaluation runner and the ``python -m repro`` CLI.
* :mod:`repro.service.sharding` — sharded multi-process serving:
  :func:`build_shards` partitions an artifact into tile shards with halo
  edges, :class:`ShardRouter` maps windows to shards, and
  :class:`ShardedQueryService` is the ``ProcessPoolExecutor`` scatter-gather
  gateway with admission control — byte-identical to the unsharded engine.
* :mod:`repro.service.generations` — the mutable world: :class:`DeltaOverlay`
  records add / update / remove / rating mutations over a frozen bundle and
  merges them into node weights at query time; :class:`Compactor` re-freezes
  base + delta into a new ``gen-NNNN/`` artifact generation and swaps it into
  the live engine; :func:`resolve_generation` follows the ``CURRENT`` pointer.
"""

from repro.service.bundle import IndexBundle
from repro.service.cache import CacheStats, LRUCache
from repro.service.keys import InstanceKey, ResultKey, normalize_keywords
from repro.service.persist import (
    FORMAT_VERSION,
    ArtifactManifest,
    cached_dataset_bundle,
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
    clear_delta_log,
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
    merge_topk,
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
    "cached_dataset_bundle",
    "QueryService",
    "QueryRequest",
    "ServiceResult",
    "LRUCache",
    "CacheStats",
    "InstanceKey",
    "ResultKey",
    "normalize_keywords",
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
    "merge_topk",
    "DeltaOverlay",
    "Compactor",
    "CompactionReport",
    "CURRENT_NAME",
    "DELTA_LOG_NAME",
    "GENERATION_PREFIX",
    "append_delta_ops",
    "apply_op",
    "apply_ops",
    "clear_delta_log",
    "generation_dirs",
    "next_generation_name",
    "overlay_from_delta_log",
    "read_delta_log",
    "resolve_generation",
    "set_current_generation",
    "write_delta_log",
]
