"""Sharded multi-process serving: tile shards with halo edges over mmap artifacts.

The thread-pool :class:`~repro.service.query_service.QueryService` is capped by
the GIL: its workers interleave on one core whenever the solver is in Python.
This module scales the serving layer across *processes* instead, without giving
up the repo's byte-identity contract:

* :func:`build_shards` — the **spatial partitioner**. It splits a built
  :class:`~repro.service.bundle.IndexBundle` into ``K`` tile shards. Each shard
  is a complete, self-contained artifact directory (own ``network.npz`` /
  ``scoring.npz`` / ``index.pkl`` / ``manifest.json``, loadable with
  :meth:`IndexBundle.load <repro.service.bundle.IndexBundle.load>` and checksum
  verified like any artifact) covering its tile **expanded by a halo margin**.
  The halo-containment invariant: a feasible LCMSR region has total edge length
  ``≤ δ``, so it lies within the ``δ``-ball of any of its nodes — with
  ``halo_margin ≥ δ_max``, any query window contained in a shard's extent
  resolves on that shard alone, and any feasible region with a node inside a
  tile lies fully inside that tile's extent.
* :class:`ShardRouter` — maps a query window to the shard(s) that can answer
  it, using the PR 6 per-cell bound columns of the *base* artifact to skip
  shards whose share of the window carries zero reachable σ-mass.
* :class:`ShardedQueryService` — the scatter-gather gateway: a lazily created
  :class:`~concurrent.futures.ProcessPoolExecutor` whose workers open their
  shard bundle on first use (fork-safe lazy init — nothing heavyweight crosses
  the fork; requests, results and timings are plain picklable dataclasses),
  admission control via a bounded in-flight semaphore with explicit rejection,
  and :func:`merge_topk` for cross-shard top-k merging.

**Byte-identity routing contract.** A query is answered bit-identically to the
unsharded service exactly when it is dispatched to ONE artifact whose extent
contains its window — the heuristic solvers are not decomposable, so the router
never splits a single query's answer across shards. Windows contained in no
shard extent (wider than a tile plus its halo, or ``region=None`` with ``K>1``)
fall back to the base artifact, which every gateway keeps addressable. The
scatter-gather path (:meth:`ShardedQueryService.scatter_topk`) is the separate,
recall-oriented fan-out: it unions per-shard top-k answers; for the Exact
solver with ``halo_margin ≥ δ`` the merged optimum equals the global optimum
(the halo-containment invariant above).

Worker processes share the page cache of the read-only mmap artifacts, so ``N``
workers cost no array copies — the Polynesia-style split of read-optimized
replicas from the serving front end.
"""

from __future__ import annotations

import json
import os
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.anytime import QueryPolicy
from repro.core.result import RegionResult, TopKResult
from repro.exceptions import ArtifactError, QueryError
from repro.network.subgraph import Rectangle
from repro.objects.corpus import ObjectCorpus
from repro.objects.mapping import NodeObjectMap
from repro.service.persist import (
    MANIFEST_NAME,
    SCORING_NAME,
    VOCABULARY_NAME,
    PathLike,
    _mmap_npz,
    _write_bytes_atomic,
    dataset_fingerprint,
    read_manifest,
    save_bundle,
)
from repro.service.query_service import QueryRequest, QueryService, ServiceResult
from repro.service.stats import ServiceStats, StatsCollector
from repro.textindex.columnar import ColumnarScoringIndex

SHARDS_DIRNAME = "shards"
"""Subdirectory of the base artifact holding the shard sub-artifacts."""

SHARD_SET_NAME = "shards.json"
"""The shard-set manifest file inside the shards directory."""

DEFAULT_HALO_MARGIN = 2000.0
"""Default halo width in meters — the workload generators' default ``δ``."""

_RectTuple = Tuple[float, float, float, float]


def _rect_tuple(rect: Rectangle) -> _RectTuple:
    return (rect.min_x, rect.min_y, rect.max_x, rect.max_y)


def _rect(values: Sequence[float]) -> Rectangle:
    return Rectangle(*(float(v) for v in values))


def _contains_rect(outer: Rectangle, inner: Rectangle) -> bool:
    return (
        outer.min_x <= inner.min_x
        and outer.min_y <= inner.min_y
        and outer.max_x >= inner.max_x
        and outer.max_y >= inner.max_y
    )


def _intersection(a: Rectangle, b: Rectangle) -> Optional[Rectangle]:
    min_x, min_y = max(a.min_x, b.min_x), max(a.min_y, b.min_y)
    max_x, max_y = min(a.max_x, b.max_x), min(a.max_y, b.max_y)
    if min_x > max_x or min_y > max_y:
        return None
    return Rectangle(min_x, min_y, max_x, max_y)


# ---------------------------------------------------------------------- manifest
@dataclass(frozen=True)
class ShardInfo:
    """One shard's entry in the shard-set manifest.

    Attributes:
        name: Directory name of the shard under ``<artifact>/shards/``.
        part: Shard index (row-major over the tile grid).
        tile: The shard's owned tile ``[min_x, min_y, max_x, max_y]``.
        extent: The tile expanded by the halo margin — the shard's actual
            spatial coverage; any window inside it resolves on this shard.
        fingerprint: :func:`~repro.service.persist.dataset_fingerprint` of the
            shard's own (sub-network, sub-corpus) content.
        covers_all: ``True`` when the extent contains the whole dataset bounding
            box (always true for ``K=1``) — such a shard can also serve
            whole-network (``region=None``) queries bit-identically.
    """

    name: str
    part: int
    tile: _RectTuple
    extent: _RectTuple
    fingerprint: str
    covers_all: bool


@dataclass(frozen=True)
class ShardSetManifest:
    """The machine-readable description of a complete shard set.

    Attributes:
        base_fingerprint: Dataset fingerprint of the base artifact the set was
            partitioned from; serving refuses a set whose base no longer
            matches (the staleness check).
        halo_margin: Halo width (m) every tile was expanded by. Queries with
            ``δ > halo_margin`` may fall back to the base artifact; queries
            with ``δ ≤ halo_margin`` whose window sits inside a tile always
            resolve on one shard.
        tiles: ``(kx, ky)`` tile-grid factorisation of the shard count.
        bbox: Dataset bounding box the tiles partition.
        shards: Per-shard entries, ordered by ``part``.
    """

    base_fingerprint: str
    halo_margin: float
    tiles: Tuple[int, int]
    bbox: _RectTuple
    shards: Tuple[ShardInfo, ...]

    def to_json(self) -> str:
        """Render as canonical (sorted-keys) JSON."""
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ShardSetManifest":
        """Parse a shard-set manifest; raises :class:`ArtifactError` when malformed."""
        try:
            raw = json.loads(text)
            shards = tuple(
                ShardInfo(
                    name=str(s["name"]),
                    part=int(s["part"]),
                    tile=tuple(float(v) for v in s["tile"]),
                    extent=tuple(float(v) for v in s["extent"]),
                    fingerprint=str(s["fingerprint"]),
                    covers_all=bool(s["covers_all"]),
                )
                for s in raw["shards"]
            )
            return cls(
                base_fingerprint=str(raw["base_fingerprint"]),
                halo_margin=float(raw["halo_margin"]),
                tiles=(int(raw["tiles"][0]), int(raw["tiles"][1])),
                bbox=tuple(float(v) for v in raw["bbox"]),
                shards=shards,
            )
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            raise ArtifactError(f"malformed shard-set manifest: {exc}") from exc

    @property
    def num_shards(self) -> int:
        """Number of shards in the set."""
        return len(self.shards)


def _tile_grid(num_shards: int) -> Tuple[int, int]:
    """Factor ``K`` into the most square ``kx × ky`` grid (kx along x)."""
    best = (num_shards, 1)
    for ky in range(1, int(num_shards**0.5) + 1):
        if num_shards % ky == 0:
            best = (num_shards // ky, ky)
    return best


# ---------------------------------------------------------------------- partitioner
def build_shards(
    bundle,
    path: PathLike,
    num_shards: int,
    halo_margin: float = DEFAULT_HALO_MARGIN,
    base_fingerprint: Optional[str] = None,
    overwrite: bool = False,
    compression: Optional[Dict[str, object]] = None,
) -> ShardSetManifest:
    """Partition a built bundle into ``K`` tile shards under ``<path>/shards/``.

    The dataset bounding box is split into a row-major ``kx × ky`` tile grid
    (the most square factorisation of ``K``); each tile is expanded by
    ``halo_margin`` into the shard's *extent*, and a complete sub-artifact is
    written for the extent: the window view of the CSR network (order-preserving,
    so window extraction inside the extent is bit-identical to the full
    network), the extent subset of the columnar scoring index (which keeps the
    full vocabulary and the corpus-global IDF / language-model statistics — see
    :meth:`ColumnarScoringIndex.subset_for_extent
    <repro.textindex.columnar.ColumnarScoringIndex.subset_for_extent>`), and
    the corpus and mapping of the extent's objects.

    Args:
        bundle: The built :class:`~repro.service.bundle.IndexBundle` of the base
            artifact.
        path: The base artifact directory; shards land in ``<path>/shards/``.
        num_shards: ``K ≥ 1``.
        halo_margin: Halo width in meters; choose ``≥`` the largest query ``δ``
            the shards should resolve locally.
        base_fingerprint: Precomputed dataset fingerprint of the base bundle
            (computed here when omitted).
        overwrite: Replace an existing shard set.
        compression: Optional chunk-compression spec from
            :func:`repro.service.persist.compression_spec`; shards then
            inherit the base artifact's compressed column layout.

    Returns:
        The written :class:`ShardSetManifest`.

    Raises:
        ArtifactError: On invalid parameters, an existing shard set without
            ``overwrite``, or a tile whose extent contains no objects (use
            fewer shards or a larger halo).
    """
    from repro.service.bundle import IndexBundle

    if num_shards < 1:
        raise ArtifactError(f"num_shards must be >= 1, got {num_shards}")
    if halo_margin < 0.0:
        raise ArtifactError(f"halo_margin must be >= 0, got {halo_margin}")
    compact = bundle.compact
    columnar = bundle.columnar

    shards_dir = Path(path) / SHARDS_DIRNAME
    set_path = shards_dir / SHARD_SET_NAME
    if set_path.exists() and not overwrite:
        raise ArtifactError(
            f"shard set already exists at {shards_dir}; pass overwrite=True "
            f"(or --force on the CLI) to replace it"
        )
    shards_dir.mkdir(parents=True, exist_ok=True)

    if base_fingerprint is None:
        base_fingerprint = dataset_fingerprint(compact, bundle.corpus)
    min_x, min_y, max_x, max_y = compact.bounding_box()
    bbox = Rectangle(min_x, min_y, max_x, max_y)
    kx, ky = _tile_grid(num_shards)
    tile_w = bbox.width / kx or 1.0
    tile_h = bbox.height / ky or 1.0

    infos: List[ShardInfo] = []
    for part in range(num_shards):
        ix, iy = part % kx, part // kx
        tile = Rectangle(
            min_x + ix * tile_w,
            min_y + iy * tile_h,
            max_x if ix == kx - 1 else min_x + (ix + 1) * tile_w,
            max_y if iy == ky - 1 else min_y + (iy + 1) * tile_h,
        )
        extent = tile.expanded(halo_margin)
        name = f"shard-{part:02d}"

        shard_compact = compact.window_view(extent)
        sub_columnar = columnar.subset_for_extent(extent)
        # The columnar subset is the membership authority (it keeps objects
        # whose coordinates OR mapped node fall inside the extent); the corpus
        # must agree exactly or boundary-node σ values would drift.
        kept_ids = set(sub_columnar.object_ids.tolist())
        sub_corpus = ObjectCorpus(
            obj for obj in bundle.corpus if obj.object_id in kept_ids
        )
        if len(sub_corpus) == 0:
            raise ArtifactError(
                f"shard tile {part} of {num_shards} contains no objects; "
                f"use fewer shards (--shards) or a larger halo (--halo)"
            )
        # Derive the mapping from the columnar subset so the pickled mapping
        # agrees exactly with the persisted arrays.
        node_to_objects: Dict[int, List[int]] = {}
        for pos in range(sub_columnar.num_nodes):
            rows = sub_columnar.object_rows_at_node(pos)
            if len(rows) == 0:
                continue
            node_id = int(sub_columnar.node_ids[pos])
            node_to_objects[node_id] = [
                int(sub_columnar.object_ids[row]) for row in rows
            ]
        object_to_node = {
            object_id: node_id
            for node_id, object_ids in node_to_objects.items()
            for object_id in object_ids
        }
        sub_mapping = NodeObjectMap(
            node_to_objects=node_to_objects, object_to_node=object_to_node
        )
        sub_bundle = IndexBundle(
            network=None,
            corpus=sub_corpus,
            mapping=sub_mapping,
            compact=shard_compact,
            columnar=sub_columnar,
            scoring_mode=bundle.scoring_mode,
            build_seconds={},
        )
        fingerprint = dataset_fingerprint(shard_compact, sub_corpus)
        save_bundle(
            sub_bundle,
            shards_dir / name,
            overwrite=overwrite,
            fingerprint=fingerprint,
            shard={
                "tile": list(_rect_tuple(tile)),
                "extent": list(_rect_tuple(extent)),
                "halo_margin": float(halo_margin),
                "part": part,
                "of": num_shards,
                "base_fingerprint": base_fingerprint,
            },
            compression=compression,
        )
        infos.append(
            ShardInfo(
                name=name,
                part=part,
                tile=_rect_tuple(tile),
                extent=_rect_tuple(extent),
                fingerprint=fingerprint,
                covers_all=_contains_rect(extent, bbox),
            )
        )

    manifest = ShardSetManifest(
        base_fingerprint=base_fingerprint,
        halo_margin=float(halo_margin),
        tiles=(kx, ky),
        bbox=_rect_tuple(bbox),
        shards=tuple(infos),
    )
    _write_bytes_atomic(set_path, manifest.to_json().encode("utf-8"))
    return manifest


def load_shard_set(path: PathLike) -> Optional[ShardSetManifest]:
    """Load and validate the shard set of the artifact at ``path``.

    Returns ``None`` when the artifact has no shard set (serving then runs
    entirely on the base artifact).

    Raises:
        ArtifactError: When the shard set exists but is stale or inconsistent:
            the base artifact's fingerprint no longer matches the one the
            shards were partitioned from, a shard directory is missing, or a
            shard manifest disagrees with the set (every message says how to
            rebuild: ``python -m repro build ... --shards K --force``).
    """
    directory = Path(path)
    set_path = directory / SHARDS_DIRNAME / SHARD_SET_NAME
    if not set_path.is_file():
        return None
    manifest = ShardSetManifest.from_json(set_path.read_text(encoding="utf-8"))
    base_manifest = read_manifest(directory)
    rebuild = (
        "rebuild the shard set with `python -m repro build ... "
        f"--shards {manifest.num_shards} --force`"
    )
    if base_manifest.fingerprint != manifest.base_fingerprint:
        raise ArtifactError(
            f"stale shard set at {directory / SHARDS_DIRNAME}: the base artifact's "
            f"fingerprint {base_manifest.fingerprint[:12]}… does not match the "
            f"fingerprint {manifest.base_fingerprint[:12]}… the shards were "
            f"partitioned from; {rebuild}"
        )
    for info in manifest.shards:
        shard_dir = directory / SHARDS_DIRNAME / info.name
        if not (shard_dir / MANIFEST_NAME).is_file():
            raise ArtifactError(
                f"shard {info.name} is missing from {directory / SHARDS_DIRNAME}; {rebuild}"
            )
        shard_manifest = read_manifest(shard_dir)
        block = shard_manifest.shard
        if block is None or str(block.get("base_fingerprint")) != manifest.base_fingerprint:
            raise ArtifactError(
                f"shard {info.name} at {shard_dir} was not partitioned from this "
                f"base artifact (base fingerprint mismatch); {rebuild}"
            )
        if shard_manifest.fingerprint != info.fingerprint:
            raise ArtifactError(
                f"shard {info.name} at {shard_dir} does not match the shard-set "
                f"manifest (content fingerprint mismatch); {rebuild}"
            )
    return manifest


# ---------------------------------------------------------------------- router
@dataclass(frozen=True)
class ShardRoute:
    """Where one query goes.

    Attributes:
        shard: The shard index to dispatch to; ``-1`` means the base artifact.
        candidates: Every shard whose extent contains the window (owner first);
            empty when the query must run on the base artifact.
        zero_mass: ``True`` when the base bound columns prove the window holds
            no reachable σ-mass (the answer is empty wherever it runs).
    """

    shard: int
    candidates: Tuple[int, ...]
    zero_mass: bool = False


class ShardRouter:
    """Map query windows to shards (byte-identity single-shard dispatch).

    Args:
        manifest: The validated shard set, or ``None`` (everything routes to
            the base artifact).
        bounds: Optional :class:`~repro.core.bounds.UpperBoundIndex` built over
            the *base* artifact's bound columns; used to skip shards with zero
            reachable σ-mass in scatter plans and to annotate routes.
    """

    def __init__(self, manifest: Optional[ShardSetManifest], bounds=None) -> None:
        self._manifest = manifest
        self._bounds = bounds
        self._extents: List[Rectangle] = (
            [_rect(s.extent) for s in manifest.shards] if manifest else []
        )
        self._tiles: List[Rectangle] = (
            [_rect(s.tile) for s in manifest.shards] if manifest else []
        )

    @property
    def manifest(self) -> Optional[ShardSetManifest]:
        """The shard set this router serves (``None`` = unsharded)."""
        return self._manifest

    def _window_mass(self, region: Rectangle) -> Optional[float]:
        if self._bounds is None:
            return None
        return float(self._bounds.window_mass_bound(region))

    def _owner(self, region: Rectangle) -> Optional[int]:
        cx, cy = region.center()
        for part, tile in enumerate(self._tiles):
            if tile.contains(cx, cy):
                return part
        return None

    def route(self, region: Optional[Rectangle]) -> ShardRoute:
        """Return the single-artifact dispatch decision for a query window.

        A window is dispatched to a shard only when that shard's extent fully
        contains it (the byte-identity contract); the owning shard — the tile
        holding the window's center — is preferred. ``region=None``
        (whole-network) queries go to a ``covers_all`` shard when one exists,
        else to the base artifact, as do windows no extent contains.
        """
        if self._manifest is None:
            return ShardRoute(shard=-1, candidates=())
        if region is None:
            for info in self._manifest.shards:
                if info.covers_all:
                    return ShardRoute(shard=info.part, candidates=(info.part,))
            return ShardRoute(shard=-1, candidates=())
        containing = [
            part
            for part, extent in enumerate(self._extents)
            if _contains_rect(extent, region)
        ]
        zero_mass = self._window_mass(region) == 0.0
        if not containing:
            return ShardRoute(shard=-1, candidates=(), zero_mass=zero_mass)
        owner = self._owner(region)
        if owner in containing:
            containing.remove(owner)
            containing.insert(0, owner)
        return ShardRoute(
            shard=containing[0], candidates=tuple(containing), zero_mass=zero_mass
        )

    def scatter_plan(self, region: Optional[Rectangle]) -> Tuple[int, ...]:
        """Return the shards a scatter-gather top-k should fan out to.

        Every shard whose *tile* intersects the window participates (tiles
        partition space, so together they see every candidate region), except
        shards whose share of the window — ``window ∩ extent`` — provably
        carries zero σ-mass under the base bound columns (Provenance-style data
        skipping: nothing with positive weight can come from there). With no
        shard set, or when every shard is skipped, the plan is ``(-1,)`` (run
        on the base artifact).
        """
        if self._manifest is None:
            return (-1,)
        if region is None:
            return tuple(range(len(self._tiles)))
        plan: List[int] = []
        for part, tile in enumerate(self._tiles):
            if not tile.intersects(region):
                continue
            share = _intersection(region, self._extents[part])
            if share is not None and self._window_mass(share) == 0.0:
                continue
            plan.append(part)
        return tuple(plan) if plan else (-1,)


# ---------------------------------------------------------------------- merge
def merge_topk(
    partials: Sequence[ServiceResult], k: int
) -> TopKResult:
    """Merge per-shard answers into one top-k, in ``solve_topk`` tie-break order.

    The merge contract matches the Exact solver's candidate ranking (the one
    solver whose top-k is a provable optimum): candidates rank by **descending
    weight, then descending length**; remaining ties keep the input order
    (shard order, then each shard's own rank order — the sort is stable).
    Duplicate regions (the same node and edge sets found by two shards whose
    halos overlap) are kept once, at their best rank. Empty partial answers are
    dropped; merging only empties yields an empty :class:`TopKResult`.
    """
    if k < 1:
        raise QueryError(f"k must be >= 1, got {k}")
    candidates: List[RegionResult] = []
    algorithm = "merged"
    runtime = 0.0
    stats: Dict[str, float] = {"shards_merged": float(len(partials))}
    for partial in partials:
        if isinstance(partial, TopKResult):
            items: List[RegionResult] = list(partial.results)
            runtime += partial.runtime_seconds
        else:
            items = [] if partial.is_empty else [partial]
            runtime += partial.runtime_seconds
        if items:
            algorithm = items[0].algorithm
        for item in items:
            if not item.is_empty:
                candidates.append(item)
    seen = set()
    unique: List[RegionResult] = []
    for item in candidates:
        key = (item.region.nodes, item.region.edges)
        if key in seen:
            continue
        seen.add(key)
        unique.append(item)
    unique.sort(key=lambda item: (-item.weight, -item.length))
    return TopKResult(
        results=tuple(unique[:k]),
        algorithm=algorithm,
        runtime_seconds=runtime,
        stats=stats,
    )


# ---------------------------------------------------------------------- workers
@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker process needs to open its shard bundles (picklable).

    Attributes:
        base_path: The base artifact directory.
        shard_paths: Shard artifact directories, indexed by shard ``part``.
        pruning: The engine pruning policy every worker serves with.
        result_cache_size / instance_cache_size: Per-worker cache capacities.
        verify: Verify artifact checksums when a worker opens a bundle.
        preload_base: Open the base-artifact engine eagerly in the worker
            initializer (benchmarks use it to keep engine loads out of the
            timed window); shard engines always open lazily on first use.
    """

    base_path: str
    shard_paths: Tuple[str, ...]
    pruning: str = "auto"
    result_cache_size: int = 512
    instance_cache_size: int = 128
    verify: bool = True
    preload_base: bool = False


_WORKER_CONFIG: Optional[WorkerConfig] = None
_WORKER_SERVICES: Dict[int, QueryService] = {}


def _worker_init(config: WorkerConfig) -> None:
    """Process-pool initializer: record the config, open nothing else eagerly."""
    global _WORKER_CONFIG
    _WORKER_CONFIG = config
    _WORKER_SERVICES.clear()
    if config.preload_base:
        _worker_service(-1)


def _worker_service(shard_index: int) -> QueryService:
    """Lazily open (and cache) the worker's service for one shard (-1 = base)."""
    service = _WORKER_SERVICES.get(shard_index)
    if service is None:
        from repro.engine import LCMSREngine  # deferred: engine imports service

        config = _WORKER_CONFIG
        if config is None:  # pragma: no cover - initializer always ran
            raise QueryError("worker process was not initialised with a WorkerConfig")
        path = (
            config.base_path if shard_index < 0 else config.shard_paths[shard_index]
        )
        # with_overlay=False: the gateway already resolved the generation to
        # serve, and sharded workers serve that frozen world only — merging a
        # pending delta on some workers but not others would break the
        # byte-identity routing contract.
        engine = LCMSREngine.from_artifact(
            path, verify=config.verify, pruning=config.pruning, with_overlay=False
        )
        # max_workers=1 and direct execute(): the worker never spawns threads
        # of its own, keeping the process pool the only concurrency layer.
        service = QueryService(
            engine,
            max_workers=1,
            result_cache_size=config.result_cache_size,
            instance_cache_size=config.instance_cache_size,
        )
        _WORKER_SERVICES[shard_index] = service
    return service


def _worker_execute(shard_index: int, request: QueryRequest):
    """Serve one request on the worker's shard service; returns (result, timing)."""
    return _worker_service(shard_index).execute_timed(request)


# ---------------------------------------------------------------------- gateway
class ShardedQueryService:
    """Multi-process scatter-gather front end over a (possibly sharded) artifact.

    Args:
        artifact: The artifact root. A ``CURRENT`` generation pointer written
            by ``python -m repro compact`` is followed automatically, and a
            shard set under the served generation's ``shards/`` subdirectory
            is picked up and validated; without one, every query runs on the
            base artifact (the pure process-scaling mode the throughput
            benchmark measures). After a later compaction, call
            :meth:`refresh` to swap to the new generation without a restart.
            Workers always serve the resolved generation frozen — pending
            delta-log mutations are ignored here (single-process
            :class:`~repro.engine.LCMSREngine` serving merges them).
        num_workers: Worker-process count; defaults to ``min(4, cpu_count)``.
        max_in_flight: Admission-control bound on concurrently executing +
            queued queries; defaults to ``4 × num_workers``. :meth:`submit`
            rejects (raises :class:`QueryError`) when the bound is reached;
            :meth:`run_batch` blocks instead (backpressure).
        pruning: Engine pruning policy for every worker.
        result_cache_size / instance_cache_size: Per-worker cache capacities.
        verify: Verify artifact checksums when workers open bundles.
        preload_base: See :attr:`WorkerConfig.preload_base`.
        shed_threshold: Load-shedding trip point: when the number of
            in-flight queries is ``≥ shed_threshold`` at submission time, an
            exact-policy request is downgraded to ``degraded_policy`` (the
            overload keeps answering, just approximately). ``None`` (default)
            disables shedding. Requests that already carry an approximate
            policy are never rewritten.
        degraded_policy: The :class:`~repro.core.anytime.QueryPolicy` shed
            requests are downgraded to; required when ``shed_threshold`` is
            set. Shed counts are surfaced via :attr:`shed` (like
            :attr:`rejected`).

    Raises:
        ArtifactError: On a missing/stale base artifact or shard set.
        QueryError: On non-positive worker / in-flight bounds, or a
            ``shed_threshold`` without a ``degraded_policy``.
    """

    def __init__(
        self,
        artifact: PathLike,
        num_workers: Optional[int] = None,
        max_in_flight: Optional[int] = None,
        pruning: str = "auto",
        result_cache_size: int = 512,
        instance_cache_size: int = 128,
        verify: bool = True,
        preload_base: bool = False,
        shed_threshold: Optional[int] = None,
        degraded_policy: Optional[QueryPolicy] = None,
    ) -> None:
        if num_workers is None:
            num_workers = min(4, os.cpu_count() or 2)
        if num_workers < 1:
            raise QueryError(f"num_workers must be >= 1, got {num_workers}")
        if max_in_flight is None:
            max_in_flight = 4 * num_workers
        if max_in_flight < 1:
            raise QueryError(f"max_in_flight must be >= 1, got {max_in_flight}")
        if shed_threshold is not None:
            if shed_threshold < 1:
                raise QueryError(
                    f"shed_threshold must be >= 1, got {shed_threshold}"
                )
            if degraded_policy is None:
                raise QueryError(
                    "shed_threshold requires a degraded_policy to downgrade to"
                )
            if degraded_policy.is_exact:
                raise QueryError(
                    "degraded_policy must be approximate (anytime/sampled); "
                    "shedding to exact would be a no-op"
                )
        from repro.service.generations import resolve_generation  # deferred: cycle

        self._root = Path(artifact)
        self._path = resolve_generation(self._root)
        self._manifest = read_manifest(self._path)
        self._shard_set = load_shard_set(self._path)
        self._pruning = pruning
        self._result_cache_size = result_cache_size
        self._instance_cache_size = instance_cache_size
        self._verify = verify
        self._preload_base = preload_base
        self._config = self._build_config(self._path)
        self._num_workers = num_workers
        self._max_in_flight = max_in_flight
        self._admission = threading.Semaphore(max_in_flight)
        self._router: Optional[ShardRouter] = None
        self._router_lock = threading.Lock()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_lock = threading.Lock()
        self._collector = StatsCollector()
        self._rejected = 0
        self._closed = False
        self._shed_threshold = shed_threshold
        self._degraded_policy = degraded_policy
        self._inflight_lock = threading.Lock()
        self._in_flight = 0
        self._shed = 0

    # ------------------------------------------------------------------ lifecycle
    def __enter__(self) -> "ShardedQueryService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Shut down the worker processes; later submissions raise ``QueryError``."""
        with self._pool_lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def _build_config(self, path: Path) -> WorkerConfig:
        """Assemble the worker configuration for the generation at ``path``."""
        shard_paths = tuple(
            str(path / SHARDS_DIRNAME / info.name)
            for info in (self._shard_set.shards if self._shard_set else ())
        )
        return WorkerConfig(
            base_path=str(path),
            shard_paths=shard_paths,
            pruning=self._pruning,
            result_cache_size=self._result_cache_size,
            instance_cache_size=self._instance_cache_size,
            verify=self._verify,
            preload_base=self._preload_base,
        )

    def refresh(self) -> bool:
        """Re-resolve the artifact's ``CURRENT`` generation and swap to it.

        Call after a compaction published a new ``gen-NNNN/`` directory: the
        gateway re-reads the ``CURRENT`` pointer, reloads the manifest and the
        new generation's shard set, and replaces the worker pool so every
        worker reopens the swapped-in artifacts. Outstanding queries on the
        old pool finish against the old generation (the pool is drained, not
        aborted); queries submitted after ``refresh`` returns are served from
        the new one.

        Returns:
            ``True`` when the served generation changed, ``False`` when the
            ``CURRENT`` pointer still names the generation already being
            served (no-op).

        Raises:
            ArtifactError: If the new generation's manifest or shard set is
                missing or stale.
            QueryError: If the service has been closed.
        """
        from repro.service.generations import resolve_generation  # deferred: cycle

        new_path = resolve_generation(self._root)
        if new_path == self._path:
            return False
        # Validate the new generation before touching serving state so a bad
        # CURRENT pointer leaves the old generation in service.
        manifest = read_manifest(new_path)
        shard_set = load_shard_set(new_path)
        with self._pool_lock:
            if self._closed:
                raise QueryError("the sharded query service has been closed")
            pool, self._pool = self._pool, None
            self._path = new_path
            self._manifest = manifest
            self._shard_set = shard_set
            self._config = self._build_config(new_path)
        with self._router_lock:
            self._router = None
        if pool is not None:
            pool.shutdown(wait=True)
        return True

    def _executor(self) -> ProcessPoolExecutor:
        with self._pool_lock:
            if self._closed:
                raise QueryError("the sharded query service has been closed")
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self._num_workers,
                    initializer=_worker_init,
                    initargs=(self._config,),
                )
            return self._pool

    # ------------------------------------------------------------------ accessors
    @property
    def num_workers(self) -> int:
        """Worker-process count."""
        return self._num_workers

    @property
    def max_in_flight(self) -> int:
        """Admission-control bound."""
        return self._max_in_flight

    @property
    def shard_set(self) -> Optional[ShardSetManifest]:
        """The validated shard set (``None`` when serving the base artifact only)."""
        return self._shard_set

    @property
    def served_path(self) -> Path:
        """The artifact directory (generation) queries are currently served from."""
        return self._path

    @property
    def rejected(self) -> int:
        """Number of submissions rejected by admission control."""
        return self._rejected

    @property
    def shed(self) -> int:
        """Number of requests downgraded to the degraded policy under load."""
        return self._shed

    @property
    def in_flight(self) -> int:
        """Number of queries currently admitted and not yet completed."""
        return self._in_flight

    @property
    def router(self) -> ShardRouter:
        """The shard router (base bound columns attached lazily on first use)."""
        with self._router_lock:
            if self._router is None:
                self._router = ShardRouter(self._shard_set, bounds=self._load_bounds())
            return self._router

    def _load_bounds(self):
        """Open the base artifact's bound columns without unpickling the indexes."""
        from repro.core.bounds import UpperBoundIndex  # deferred: cycle guard

        try:
            arrays = _mmap_npz(self._path / SCORING_NAME)
            terms = json.loads(
                (self._path / VOCABULARY_NAME).read_text(encoding="utf-8")
            )
            columnar = ColumnarScoringIndex.from_arrays(
                terms, arrays, lm_smoothing=self._manifest.lm_smoothing
            )
            return UpperBoundIndex.from_columnar(columnar, self._manifest.scoring_mode)
        except Exception:
            # Routing bounds are an optimisation; serve without skipping rather
            # than failing the gateway.
            return None

    def stats(self) -> ServiceStats:
        """Gateway-side aggregate of every worker-reported query timing.

        The cache counters are the gateway-visible approximation derived from
        the timing flags (hits = per-worker cache hits the workers reported;
        sizes are not observable across processes and read 0).
        """
        from repro.service.cache import CacheStats

        snapshot = self._collector.snapshot(
            result_cache=CacheStats(hits=0, misses=0, evictions=0, size=0, max_size=0),
            instance_cache=CacheStats(hits=0, misses=0, evictions=0, size=0, max_size=0),
        )
        totals = snapshot.totals
        result_cache = CacheStats(
            hits=totals.result_hits,
            misses=totals.queries - totals.result_hits,
            evictions=0,
            size=0,
            max_size=self._config.result_cache_size,
        )
        instance_cache = CacheStats(
            hits=totals.instance_hits,
            misses=totals.queries - totals.result_hits - totals.instance_hits,
            evictions=0,
            size=0,
            max_size=self._config.instance_cache_size,
        )
        return ServiceStats(
            timings=snapshot.timings,
            result_cache=result_cache,
            instance_cache=instance_cache,
            totals=totals,
        )

    def reset_stats(self) -> None:
        """Drop the gateway's recorded timings and totals."""
        self._collector.reset()

    # ------------------------------------------------------------------ dispatch
    def _maybe_shed(self, request: QueryRequest) -> QueryRequest:
        """Downgrade an exact request to the degraded policy under load.

        The shedding rule reads the explicit in-flight counter *before* the
        admission acquire: once ``in_flight ≥ shed_threshold``, newly arriving
        exact requests are rewritten to the configured degraded policy (and
        counted in :attr:`shed`). Requests that already carry an approximate
        policy pass through untouched — the caller opted into a specific
        quality and the gateway must not change it.
        """
        if self._shed_threshold is None or self._degraded_policy is None:
            return request
        if request.policy is not None and not request.policy.is_exact:
            return request
        with self._inflight_lock:
            if self._in_flight < self._shed_threshold:
                return request
            self._shed += 1
        return replace(request, policy=self._degraded_policy)

    def _dispatch(self, request: QueryRequest, blocking: bool) -> "Future":
        request = self._maybe_shed(request)
        route = self.router.route(request.region)
        if not self._admission.acquire(blocking=blocking):
            with self._pool_lock:
                self._rejected += 1
            raise QueryError(
                f"admission queue full ({self._max_in_flight} queries in flight); "
                f"retry later or raise max_in_flight"
            )
        with self._inflight_lock:
            self._in_flight += 1
        try:
            inner = self._executor().submit(_worker_execute, route.shard, request)
        except BaseException:
            with self._inflight_lock:
                self._in_flight -= 1
            self._admission.release()
            raise
        inner.add_done_callback(self._on_done)
        return inner

    def _on_done(self, inner: "Future") -> None:
        with self._inflight_lock:
            self._in_flight -= 1
        self._admission.release()
        if inner.cancelled() or inner.exception() is not None:
            return
        _, timing = inner.result()
        self._collector.record(timing)

    @staticmethod
    def _unwrap(inner: "Future") -> "Future":
        outer: "Future[ServiceResult]" = Future()
        outer.set_running_or_notify_cancel()

        def _complete(fut: "Future") -> None:
            exc = fut.exception()
            if exc is not None:
                outer.set_exception(exc)
            else:
                outer.set_result(fut.result()[0])

        inner.add_done_callback(_complete)
        return outer

    def execute(self, request: QueryRequest) -> ServiceResult:
        """Serve one request synchronously (routed to one shard or the base).

        Bit-identical to :meth:`QueryService.execute
        <repro.service.query_service.QueryService.execute>` on the unsharded
        artifact — the router only ever picks an artifact whose extent contains
        the query window.
        """
        result, _ = self._dispatch(request, blocking=True).result()
        return result

    def submit(self, request: QueryRequest) -> "Future[ServiceResult]":
        """Enqueue one request; rejects instead of queueing past the bound.

        Raises:
            QueryError: When admission control is full (explicit rejection —
                the caller decides whether to retry, shed or block) or the
                service is closed.
        """
        return self._unwrap(self._dispatch(request, blocking=False))

    def run_batch(self, requests: Sequence[QueryRequest]) -> List[ServiceResult]:
        """Execute a batch across the worker processes; results in request order.

        Admission control applies backpressure here (blocking acquire), so a
        batch larger than ``max_in_flight`` streams through the bound instead
        of rejecting.
        """
        futures = [self._dispatch(request, blocking=True) for request in requests]
        return [future.result()[0] for future in futures]

    # ------------------------------------------------------------------ scatter-gather
    def scatter_topk(
        self,
        keywords: Iterable[str],
        delta: float,
        k: int,
        region: Optional[Rectangle] = None,
        algorithm: Optional[str] = None,
    ) -> TopKResult:
        """Fan a top-k query out to every shard that can contribute and merge.

        Each shard in the router's :meth:`~ShardRouter.scatter_plan` solves the
        query over its own content; the per-shard answers are merged by
        :func:`merge_topk` (descending weight, then descending length — the
        Exact solver's own tie-break order), deduplicating regions found by two
        overlapping halos. This is the recall-oriented cross-shard path: for
        heuristic solvers the union of per-shard answers may differ from the
        unsharded heuristic's answer; for the Exact solver with
        ``halo_margin ≥ δ`` the merged optimum is the global optimum.
        """
        request_keywords = tuple(keywords)
        plan = self.router.scatter_plan(region)
        futures = [
            self._dispatch_to(
                shard,
                QueryRequest.create(
                    request_keywords, delta=delta, region=region,
                    algorithm=algorithm, k=k,
                ),
            )
            for shard in plan
        ]
        partials = [future.result()[0] for future in futures]
        return merge_topk(partials, k)

    def _dispatch_to(self, shard_index: int, request: QueryRequest) -> "Future":
        self._admission.acquire()
        with self._inflight_lock:
            self._in_flight += 1
        try:
            inner = self._executor().submit(_worker_execute, shard_index, request)
        except BaseException:
            with self._inflight_lock:
                self._in_flight -= 1
            self._admission.release()
            raise
        inner.add_done_callback(self._on_done)
        return inner


__all__ = [
    "DEFAULT_HALO_MARGIN",
    "SHARDS_DIRNAME",
    "SHARD_SET_NAME",
    "ShardInfo",
    "ShardSetManifest",
    "ShardRoute",
    "ShardRouter",
    "ShardedQueryService",
    "WorkerConfig",
    "build_shards",
    "load_shard_set",
    "merge_topk",
]
