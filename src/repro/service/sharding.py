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
* :class:`ShardRouter` — maps a query window to the one shard whose extent
  contains it (the owning tile's shard first), or to the base artifact.
* :class:`ShardedQueryService` — the routing gateway: a lazily created
  :class:`~concurrent.futures.ProcessPoolExecutor` whose workers open each
  artifact directory on first use (fork-safe lazy init — nothing heavyweight
  crosses the fork; requests, results and timings are plain picklable
  dataclasses), and admission control via a bounded in-flight semaphore with
  explicit rejection.

**Byte-identity routing contract.** A query is answered bit-identically to the
unsharded service exactly when it is dispatched to ONE artifact whose extent
contains its window — the heuristic solvers are not decomposable, so the router
never splits a single query's answer across shards. Windows contained in no
shard extent (wider than a tile plus its halo, or ``region=None`` with ``K>1``)
fall back to the base artifact, which every gateway keeps addressable. Each
dispatch names the artifact directory it was routed to, so a query routed just
before :meth:`ShardedQueryService.refresh` is answered by the generation it was
routed on.

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
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.anytime import QueryPolicy
from repro.exceptions import ArtifactError, QueryError
from repro.network.subgraph import Rectangle
from repro.objects.corpus import ObjectCorpus
from repro.service.bundle import IndexBundle
from repro.service.persist import (
    MANIFEST_NAME,
    PathLike,
    _write_bytes_atomic,
    dataset_fingerprint,
    read_manifest,
    save_bundle,
)
from repro.service.query_service import QueryRequest, QueryService, ServiceResult
from repro.service.stats import ServiceStats, StatsCollector

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
    <repro.textindex.columnar.ColumnarScoringIndex.subset_for_extent>`, whose
    node table and node → object CSR carry the extent's mapping), and the
    corpus of the extent's objects.

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
        sub_bundle = IndexBundle(
            network=None,
            corpus=sub_corpus,
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
    """

    shard: int
    candidates: Tuple[int, ...]


class ShardRouter:
    """Map query windows to shards (byte-identity single-shard dispatch).

    Args:
        manifest: The validated shard set, or ``None`` (everything routes to
            the base artifact).
    """

    def __init__(self, manifest: Optional[ShardSetManifest]) -> None:
        self._manifest = manifest
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
        if not containing:
            return ShardRoute(shard=-1, candidates=())
        owner = self._owner(region)
        if owner in containing:
            containing.remove(owner)
            containing.insert(0, owner)
        return ShardRoute(shard=containing[0], candidates=tuple(containing))


@dataclass(frozen=True)
class _Generation:
    """The routing state of one served generation.

    :meth:`ShardedQueryService.refresh` replaces it in one assignment, so a
    dispatch that reads it once pairs its route with the directories of the
    same generation.

    Attributes:
        path: The generation's base artifact directory.
        router: The router over the generation's shard set.
        shard_dirs: The shard artifact directories, indexed by shard ``part``.
    """

    path: Path
    router: ShardRouter
    shard_dirs: Tuple[str, ...]

    @classmethod
    def open(cls, path: Path) -> "_Generation":
        """Validate the artifact and shard set at ``path`` and route over them.

        Raises:
            ArtifactError: On a missing base manifest or a stale shard set.
        """
        read_manifest(path)
        shard_set = load_shard_set(path)
        shards = shard_set.shards if shard_set else ()
        return cls(
            path=path,
            router=ShardRouter(shard_set),
            shard_dirs=tuple(str(path / SHARDS_DIRNAME / info.name) for info in shards),
        )

    def directory(self, route: ShardRoute) -> str:
        """The artifact directory ``route`` dispatches to."""
        return self.shard_dirs[route.shard] if route.shard >= 0 else str(self.path)


# ---------------------------------------------------------------------- workers
@dataclass(frozen=True)
class WorkerConfig:
    """What a worker process needs besides the requests it serves (picklable).

    Attributes:
        base_path: The served generation's base artifact directory.
        result_cache_size / instance_cache_size: Per-worker cache capacities.
        preload_base: Open the base-artifact engine eagerly in the worker
            initializer (benchmarks use it to keep engine loads out of the
            timed window); every other artifact opens lazily on first use.
    """

    base_path: str
    result_cache_size: int = 512
    instance_cache_size: int = 128
    preload_base: bool = False


_WORKER_CONFIG: Optional[WorkerConfig] = None
_WORKER_SERVICES: Dict[str, QueryService] = {}


def _worker_init(config: WorkerConfig) -> None:
    """Process-pool initializer: record the config, open nothing else eagerly."""
    global _WORKER_CONFIG
    _WORKER_CONFIG = config
    _WORKER_SERVICES.clear()
    if config.preload_base:
        _worker_service(config.base_path)


def _worker_service(path: str) -> QueryService:
    """Lazily open (and cache) the worker's service for one artifact directory."""
    service = _WORKER_SERVICES.get(path)
    if service is None:
        from repro.engine import LCMSREngine  # deferred: engine imports service

        config = _WORKER_CONFIG
        if config is None:  # pragma: no cover - initializer always ran
            raise QueryError("worker process was not initialised with a WorkerConfig")
        # Load exactly the routed directory: no CURRENT pointer is followed
        # and no delta overlay is merged. The gateway already resolved the
        # generation to serve, and merging a pending delta on some workers but
        # not others would break the byte-identity routing contract.
        engine = LCMSREngine.from_bundle(IndexBundle.load(path))
        # max_workers=1 and direct execute(): the worker never spawns threads
        # of its own, keeping the process pool the only concurrency layer.
        service = QueryService(
            engine,
            max_workers=1,
            result_cache_size=config.result_cache_size,
            instance_cache_size=config.instance_cache_size,
        )
        _WORKER_SERVICES[path] = service
    return service


def _worker_execute(path: str, request: QueryRequest):
    """Serve one request on the artifact at ``path``; returns (result, timing)."""
    return _worker_service(path).execute_timed(request)


# ---------------------------------------------------------------------- gateway
class ShardedQueryService:
    """Multi-process routing front end over a (possibly sharded) artifact.

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
        result_cache_size / instance_cache_size: Per-worker cache capacities.
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
        result_cache_size: int = 512,
        instance_cache_size: int = 128,
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
        self._generation = _Generation.open(resolve_generation(self._root))
        self._config = WorkerConfig(
            base_path=str(self._generation.path),
            result_cache_size=result_cache_size,
            instance_cache_size=instance_cache_size,
            preload_base=preload_base,
        )
        self._num_workers = num_workers
        self._max_in_flight = max_in_flight
        self._admission = threading.Semaphore(max_in_flight)
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

    def refresh(self) -> bool:
        """Re-resolve the artifact's ``CURRENT`` generation and swap to it.

        Call after a compaction published a new ``gen-NNNN/`` directory: the
        gateway re-reads the ``CURRENT`` pointer, reloads the manifest and the
        new generation's shard set, and replaces the worker pool so every
        worker reopens the swapped-in artifacts. Outstanding queries on the
        old pool finish against the old generation (the pool is drained, not
        aborted), and a query routed before the swap is answered by the
        generation it was routed on (generation directories stay on disk);
        queries submitted after ``refresh`` returns are served from the new
        one.

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
        if new_path == self._generation.path:
            return False
        # Validate the new generation before touching serving state so a bad
        # CURRENT pointer leaves the old generation in service.
        generation = _Generation.open(new_path)
        with self._pool_lock:
            if self._closed:
                raise QueryError("the sharded query service has been closed")
            pool, self._pool = self._pool, None
            self._generation = generation
            self._config = replace(self._config, base_path=str(new_path))
        if pool is not None:
            pool.shutdown(wait=True)
        return True

    def _submit(self, path: str, request: QueryRequest) -> "Future":
        # Pool creation and the submit share one _pool_lock block, so a
        # concurrent refresh() swaps the pool either before this request is
        # queued or after it, and then drains it on the old pool.
        with self._pool_lock:
            if self._closed:
                raise QueryError("the sharded query service has been closed")
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self._num_workers,
                    initializer=_worker_init,
                    initargs=(self._config,),
                )
            return self._pool.submit(_worker_execute, path, request)

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
        return self._generation.router.manifest

    @property
    def served_path(self) -> Path:
        """The artifact directory (generation) queries are currently served from."""
        return self._generation.path

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
        """The router over the served generation's shard set."""
        return self._generation.router

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
        # One read of the routing state: a concurrent refresh() cannot pair
        # this route with the next generation's directories.
        generation = self._generation
        path = generation.directory(generation.router.route(request.region))
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
            inner = self._submit(path, request)
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
]
