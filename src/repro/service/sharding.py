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
* :class:`ShardedQueryService` — the routing gateway: ``N`` forked worker
  processes, each joined to the gateway by one duplex pipe with one gateway
  reader thread that resolves the callers' futures, and admission control via
  a bounded in-flight semaphore with explicit rejection. Workers open each
  artifact directory on first use (nothing heavyweight crosses the fork;
  requests, results and timings are plain picklable dataclasses). A request
  goes to the worker holding the fewest requests, the lowest slot on ties,
  so it never queues behind a busy worker while another is idle. A dead
  worker fails only the requests it held, with a
  :class:`~repro.exceptions.QueryError`, and the next request starts its
  replacement. The workers live until :meth:`~ShardedQueryService.close`:
  close every gateway, or open it in a ``with`` block.

**Byte-identity routing contract.** A query is answered bit-identically to the
unsharded service exactly when it is dispatched to ONE artifact whose extent
contains its window — the heuristic solvers are not decomposable, so the router
never splits a single query's answer across shards. Windows contained in no
shard extent (wider than a tile plus its halo, or ``region=None`` with ``K>1``)
fall back to the base artifact, which every gateway keeps addressable. Each
dispatch names the artifact directory it was routed to.

**Fixed routing state.** A gateway serves the generation that ``CURRENT``
names when the gateway is built, with that generation's shard set, for its
whole life. To serve a newer generation after a compaction, open a new gateway
(``python -m repro serve-batch --processes`` opens one per run).

Worker processes share the page cache of the read-only mmap artifacts, so ``N``
workers cost no array copies — the Polynesia-style split of read-optimized
replicas from the serving front end.
"""

from __future__ import annotations

import itertools
import json
import logging
import math
import multiprocessing
import os
import pickle
import threading
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
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
    if not math.isfinite(halo_margin):
        raise ArtifactError(f"halo_margin must be finite, got {halo_margin}")
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
            corpus_source=sub_corpus,
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


# ---------------------------------------------------------------------- workers
@dataclass(frozen=True)
class WorkerConfig:
    """What a worker process needs besides the requests it serves (picklable).

    Attributes:
        base_path: The served generation's base artifact directory.
        result_cache_size / instance_cache_size: Per-worker cache capacities.
        preload_base: Open the base-artifact engine eagerly when the worker
            starts (benchmarks use it to keep engine loads out of the timed
            window); every other artifact opens lazily on first use.
    """

    base_path: str
    result_cache_size: int = 512
    instance_cache_size: int = 128
    preload_base: bool = False


_WORKER_CONFIG: Optional[WorkerConfig] = None
_WORKER_SERVICES: Dict[str, QueryService] = {}

# Fork, not spawn: a spawned worker would import the package again first.
_FORK = multiprocessing.get_context("fork")
_STOP = pickle.dumps(None)
_CLOSED = "the sharded query service has been closed"

logger = logging.getLogger(__name__)


def _worker_init(config: WorkerConfig) -> None:
    """Worker start-up: record the config, open nothing else eagerly."""
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
        if config is None:  # pragma: no cover - _worker_init always ran
            raise QueryError("worker process was not initialised with a WorkerConfig")
        # Load exactly the routed directory: no CURRENT pointer is followed
        # and no delta overlay is merged. The gateway already resolved the
        # generation to serve, and merging a pending delta on some workers but
        # not others would break the byte-identity routing contract.
        engine = LCMSREngine.from_bundle(IndexBundle.load(path))
        # max_workers=1 and direct execute(): the worker never spawns threads
        # of its own, keeping the worker processes the only concurrency layer.
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


def _sendable(exc: Exception) -> Exception:
    """``exc`` when it survives a pickle round trip, else a QueryError with its repr."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:  # whatever a custom __reduce__ or __init__ raises
        return QueryError(repr(exc))
    return exc


def _worker_main(conn, inherited, config: WorkerConfig) -> None:
    """A worker process: answer ``(id, path, request)`` messages in arrival order.

    ``inherited`` holds the gateway-side pipe ends this fork copied; closing
    them leaves the gateway their only holder, so a dead gateway reaches every
    worker as EOF.
    """
    for end in inherited:
        end.close()
    _worker_init(config)
    while True:
        try:
            message = conn.recv()
        except EOFError:  # the gateway is gone
            return
        if message is None:  # close(): every request sent before it is answered
            return
        rid, path, request = message
        try:
            outcome = _worker_execute(path, request)
        except Exception as exc:  # the caller's future raises it
            outcome = _sendable(exc)
        try:
            conn.send((rid, outcome))
        except OSError:  # the gateway is gone
            return


def _worker_died(cause: BrokenProcessPool) -> QueryError:
    """The error a request gets when the worker serving it died."""
    error = QueryError(
        f"a worker process died before answering this request; retry it ({cause})"
    )
    error.__cause__ = cause
    return error


class _Worker:
    """One worker process, the gateway's end of its pipe and what it holds."""

    def __init__(self, process, conn, read) -> None:
        self.process = process
        self.conn = conn
        self.send_lock = threading.Lock()
        self.pending: Dict[int, Future] = {}
        self.alive = True
        self.reader = threading.Thread(target=read, args=(self,), daemon=True)


# ---------------------------------------------------------------------- gateway
class ShardedQueryService:
    """Multi-process routing front end over a (possibly sharded) artifact.

    Call :meth:`close` when done, or use the gateway as a context manager:
    each worker's reader thread holds the gateway, so dropping the last
    reference stops nothing, and the workers live until the interpreter exits.

    Args:
        artifact: The artifact root. A ``CURRENT`` generation pointer written
            by ``python -m repro compact`` is followed automatically, and a
            shard set under the served generation's ``shards/`` subdirectory
            is picked up and validated; without one, every query runs on the
            base artifact (the pure process-scaling mode the throughput
            benchmark measures). The generation is resolved once, here: to
            serve a later compaction's generation, open a new gateway.
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

        self._path = resolve_generation(artifact)
        read_manifest(self._path)
        shard_set = load_shard_set(self._path)
        self._router = ShardRouter(shard_set)
        self._shard_dirs = tuple(
            str(self._path / SHARDS_DIRNAME / info.name)
            for info in (shard_set.shards if shard_set else ())
        )
        self._config = WorkerConfig(
            base_path=str(self._path),
            result_cache_size=result_cache_size,
            instance_cache_size=instance_cache_size,
            preload_base=preload_base,
        )
        self._max_in_flight = max_in_flight
        self._admission = threading.Semaphore(max_in_flight)
        # _lock guards the worker slots, each worker's pending map and
        # _closed. A request that finds a slot empty or its worker dead
        # forks the slot's worker first.
        self._workers: List[Optional[_Worker]] = [None] * num_workers
        self._lock = threading.Lock()
        self._ids = itertools.count()
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
        """Stop the workers once they have answered every request sent to them.

        Required: nothing else stops the workers while the gateway's process
        lives. Later submissions raise ``QueryError``.
        """
        with self._lock:
            self._closed = True
            workers = [worker for worker in self._workers if worker is not None]
            self._workers = []
        for worker in workers:
            with worker.send_lock:
                try:
                    worker.conn.send_bytes(_STOP)
                except OSError:  # dead already: its reader settles what it held
                    pass
        for worker in workers:
            worker.reader.join()

    def _start_worker(self) -> _Worker:
        """Fork one worker and start its reader thread; called under ``_lock``."""
        gateway_end, worker_end = _FORK.Pipe()
        inherited = [w.conn for w in self._workers if w is not None] + [gateway_end]
        process = _FORK.Process(
            target=_worker_main, args=(worker_end, inherited, self._config), daemon=True
        )
        process.start()
        worker_end.close()
        worker = _Worker(process, gateway_end, self._read)
        worker.reader.start()
        return worker

    def _read(self, worker: _Worker) -> None:
        """Reader thread: settle each answered future, then what a dead worker held."""
        try:
            while True:
                rid, outcome = worker.conn.recv()
                with self._lock:
                    future = worker.pending.pop(rid)
                self._settle(future, outcome)
        except (EOFError, OSError):  # the worker exited
            pass
        worker.process.join()
        with self._lock, worker.send_lock:
            worker.conn.close()
            worker.alive = False
            pending, worker.pending = worker.pending, {}
        pid, code = worker.process.pid, worker.process.exitcode
        if code != 0:
            logger.warning(
                "worker process %d exited with code %s; %d request(s) it held failed",
                pid, code, len(pending),
            )
        cause = BrokenProcessPool(f"worker process {pid} exited with code {code}")
        for future in pending.values():
            # Exit code 0 is close()'s stop: these requests were sent after it.
            self._settle(future, _worker_died(cause) if code else QueryError(_CLOSED))

    def _settle(self, future: "Future", outcome) -> None:
        """Free the request's admission slot, record its timing, resolve its future."""
        with self._inflight_lock:
            self._in_flight -= 1
        self._admission.release()
        if isinstance(outcome, BaseException):
            future.set_exception(outcome)
        else:
            result, timing = outcome
            self._collector.record(timing)
            future.set_result(result)

    def _submit(self, path: str, request: QueryRequest) -> "Future[ServiceResult]":
        rid = next(self._ids)
        payload = pickle.dumps((rid, path, request), pickle.HIGHEST_PROTOCOL)
        future: "Future[ServiceResult]" = Future()
        future.set_running_or_notify_cancel()  # a sent request cannot be withdrawn
        with self._lock:
            if self._closed:
                raise QueryError(_CLOSED)
            for index, slot in enumerate(self._workers):
                if slot is None or not slot.alive:
                    self._workers[index] = self._start_worker()
                    if slot is not None:
                        logger.info(
                            "worker process %d replaces dead worker process %d",
                            self._workers[index].process.pid, slot.process.pid,
                        )
            # The least-loaded worker, lowest slot on ties: no request waits
            # behind a busy worker while another is idle.
            worker = min(self._workers, key=lambda w: len(w.pending))
            worker.pending[rid] = future
        with worker.send_lock:
            try:
                worker.conn.send_bytes(payload)
            except OSError:  # the worker died: its reader fails this future
                pass
        return future

    # ------------------------------------------------------------------ accessors
    @property
    def shard_set(self) -> Optional[ShardSetManifest]:
        """The validated shard set (``None`` when serving the base artifact only)."""
        return self._router.manifest

    @property
    def served_path(self) -> Path:
        """The artifact directory (generation) this gateway serves."""
        return self._path

    @property
    def rejected(self) -> int:
        """Number of submissions rejected by admission control."""
        return self._rejected

    @property
    def shed(self) -> int:
        """Number of admitted requests downgraded to the degraded policy under
        load (a request that admission control rejects is not counted)."""
        return self._shed

    @property
    def in_flight(self) -> int:
        """Number of queries currently admitted and not yet completed."""
        return self._in_flight

    def stats(self) -> ServiceStats:
        """Gateway-side aggregate of every worker-reported query timing.

        The cache counters are the gateway-visible approximation derived from
        the timing flags (hits = per-worker cache hits the workers reported;
        sizes are not observable across processes and read 0).
        """
        from repro.service.cache import CacheStats

        unseen = CacheStats(hits=0, misses=0, evictions=0, size=0, max_size=0)
        snapshot = self._collector.snapshot(result_cache=unseen, instance_cache=unseen)
        totals = snapshot.totals
        return replace(
            snapshot,
            result_cache=CacheStats(
                hits=totals.result_hits,
                misses=totals.queries - totals.result_hits,
                evictions=0,
                size=0,
                max_size=self._config.result_cache_size,
            ),
            instance_cache=CacheStats(
                hits=totals.instance_hits,
                misses=totals.queries - totals.result_hits - totals.instance_hits,
                evictions=0,
                size=0,
                max_size=self._config.instance_cache_size,
            ),
        )

    def reset_stats(self) -> None:
        """Drop the gateway's recorded timings and totals."""
        self._collector.reset()

    # ------------------------------------------------------------------ dispatch
    def _maybe_shed(self, request: QueryRequest) -> QueryRequest:
        """Downgrade an exact request to the degraded policy under load.

        The shedding rule reads the explicit in-flight counter *before* the
        admission acquire: once ``in_flight ≥ shed_threshold``, newly arriving
        exact requests are rewritten to the configured degraded policy
        (:meth:`_dispatch` counts them in :attr:`shed` once admitted).
        Requests that already carry an approximate policy pass through
        untouched — the caller opted into a specific quality and the gateway
        must not change it.
        """
        if self._shed_threshold is None or self._degraded_policy is None:
            return request
        if request.policy is not None and not request.policy.is_exact:
            return request
        with self._inflight_lock:
            if self._in_flight < self._shed_threshold:
                return request
        return replace(request, policy=self._degraded_policy)

    def _dispatch(self, request: QueryRequest, blocking: bool) -> "Future":
        served = self._maybe_shed(request)
        route = self._router.route(served.query.region)
        path = self._shard_dirs[route.shard] if route.shard >= 0 else str(self._path)
        if not self._admission.acquire(blocking=blocking):
            with self._inflight_lock:
                self._rejected += 1
            raise QueryError(
                f"admission queue full ({self._max_in_flight} queries in flight); "
                f"retry later or raise max_in_flight"
            )
        with self._inflight_lock:
            self._in_flight += 1
            if served is not request:
                self._shed += 1
        try:
            return self._submit(path, served)
        except BaseException:
            with self._inflight_lock:
                self._in_flight -= 1
            self._admission.release()
            raise

    def execute(self, request: QueryRequest) -> ServiceResult:
        """Serve one request synchronously (routed to one shard or the base).

        Bit-identical to :meth:`QueryService.execute
        <repro.service.query_service.QueryService.execute>` on the unsharded
        artifact — the router only ever picks an artifact whose extent contains
        the query window.

        Raises:
            QueryError: On a malformed request, a closed service, or a worker
                that died before answering (the request may be retried).
        """
        return self._dispatch(request, blocking=True).result()

    def submit(self, request: QueryRequest) -> "Future[ServiceResult]":
        """Enqueue one request; rejects instead of queueing past the bound.

        Raises:
            QueryError: When admission control is full (explicit rejection —
                the caller decides whether to retry, shed or block) or the
                service is closed. The future fails with one when the worker
                serving the request died.
        """
        return self._dispatch(request, blocking=False)

    def run_batch(self, requests: Sequence[QueryRequest]) -> List[ServiceResult]:
        """Execute a batch across the worker processes; results in request order.

        Admission control applies backpressure here (blocking acquire), so a
        batch larger than ``max_in_flight`` streams through the bound instead
        of rejecting.

        Raises:
            QueryError: Re-raised from the first failing request, including one
                whose worker died.
        """
        futures = [self._dispatch(request, blocking=True) for request in requests]
        return [future.result() for future in futures]


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
