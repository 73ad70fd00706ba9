"""Mutable world: delta overlay, generation store, and background compaction.

Every index in the stack is frozen at build time (CSR network, columnar scoring,
shard artifacts).  This module adds the write path on top of those frozen
artifacts, following the delta-main split of update-friendly stores (Polynesia's
update path vs. read-optimised replicas; the incremental-view-maintenance
framing of DBSP / Differential Dataflow):

* :class:`DeltaOverlay` — mutations (add / update / remove object, rating
  change) land in a small insertion-ordered dict.  Reads merge the base
  columnar σ_v sums with overlay contributions at query time: superseded base
  rows are masked out of the :meth:`~repro.textindex.columnar.WeightPipeline.node_sums`
  aggregation and overlay objects are scored by the scalar reference
  arithmetic, so a merged weight map is bit-identical to a cold rebuild of the
  mutated corpus whenever the collection statistics allow it (see below).
* a tiny *generation store* — compacted artifacts live under
  ``<artifact>/gen-NNNN/`` next to the base artifact, and a ``CURRENT`` pointer
  file names the generation being served.  ``CURRENT`` is written atomically
  (temp sibling + rename), and :func:`save_bundle` writes the manifest last, so
  a crash mid-compaction leaves either the old ``CURRENT`` or a manifest-less
  partial directory that loading detects and ignores.
* :class:`Compactor` — re-freezes base+delta into a new generation:
  materialise the mutated corpus in canonical order, rebuild a full
  :class:`~repro.service.bundle.IndexBundle` through the exact same build path
  a cold rebuild uses, persist it as ``gen-NNNN``, mirror the served
  generation's shard set, flip ``CURRENT``, and atomically swap the new bundle
  into the live engine (which bumps ``bundle_generation`` and invalidates the
  :class:`~repro.service.query_service.QueryService` caches).

IDF pinning policy
------------------
Overlay serving pins **all collection statistics to the base generation**: the
query vector's IDF weights (document frequencies and ``|D|``) and the language
model's collection term distribution come from the frozen base bundle and are
*not* updated by pending mutations.  This makes overlay results deterministic
and cheap (no incremental statistics maintenance), at the cost of overlay
results differing from a cold rebuild while statistics-changing mutations
(keyword adds/removes) are pending.  The guarantees, asserted by the
mutation-parity suite:

* **after compaction** results are byte-identical to a cold rebuild of the
  mutated dataset, for every scoring mode and every mutation — compaction goes
  through the cold build path, so this holds structurally;
* **before compaction** overlay-serving results are byte-identical to the
  post-compaction results whenever the pending mutations preserve collection
  statistics: always for ``rating_if_match`` (statistics-free), and for
  ``text_relevance`` / ``language_model`` under keyword-preserving mutations
  (rating changes, coordinate moves).

Merge ordering
--------------
The merged weight dict must reproduce the *cold* pipeline's dict order, which
is the node first-touch order over the mutated corpus.  The canonical mutated
corpus order is: surviving base objects in base order (skipping every id with a
pending overlay entry), then live overlay entries in first-mutation order.
:meth:`DeltaOverlay.node_weights` therefore emits nodes first-touched by a
surviving base row in ascending-row order, then overlay-only nodes in entry
order — and :meth:`DeltaOverlay.materialize_corpus` (what the compactor
rebuilds from) materialises exactly that corpus order.
"""

from __future__ import annotations

import json
import math
import re
import threading
import time
import warnings
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ArtifactError, DatasetError
from repro.network.subgraph import Rectangle
from repro.objects.corpus import ObjectCorpus
from repro.objects.geoobject import GeoTextualObject
from repro.service.bundle import IndexBundle
from repro.service.persist import (
    MANIFEST_NAME,
    _write_bytes_atomic,
    compression_spec,
    read_manifest,
    save_bundle,
)
from repro.textindex.relevance import LanguageModelScorer, ScoringMode
from repro.textindex.vector_space import tf_weight

GENERATION_PREFIX = "gen-"
"""Directory-name prefix of compacted generations inside an artifact root."""

CURRENT_NAME = "CURRENT"
"""Pointer file naming the generation directory currently being served."""

DELTA_LOG_NAME = "delta.json"
"""Durable mutation log the CLI appends to (compaction clears it)."""

_GENERATION_PATTERN = re.compile(r"^gen-(\d{4,})$")


# ------------------------------------------------------------------ delta overlay


class DeltaOverlay:
    """Pending mutations over a frozen :class:`IndexBundle`, merged at read time.

    The overlay is a single insertion-ordered dict ``object_id → object-or-None``
    (``None`` is a tombstone).  A dict entry *supersedes* the base row of the
    same id: the base row is masked out of the columnar aggregation and, for
    live entries, the overlay object is re-scored by the scalar reference
    arithmetic against base-generation collection statistics (see the module
    docstring for the IDF pinning policy).

    Thread safety: mutations and :meth:`node_weights` serialise on one lock —
    the overlay is the small write-side structure, not a throughput path.
    A compaction :meth:`freeze`\\ s the overlay; frozen overlays reject further
    mutations so a background re-freeze can never lose writes silently.

    Args:
        bundle: The frozen base bundle.
    """

    def __init__(self, bundle: IndexBundle) -> None:
        pipeline = bundle.weight_pipeline()
        self._bundle = bundle
        self._pipeline = pipeline
        self._index = pipeline.index
        self._mode = bundle.scoring_mode
        # The scalar language-model scorer snapshots the *base* corpus'
        # collection statistics at construction — exactly the pinning policy.
        self._lm = (
            LanguageModelScorer(bundle.corpus, smoothing=self._index.lm_smoothing)
            if self._mode is ScoringMode.LANGUAGE_MODEL
            else None
        )
        self._entries: Dict[int, Optional[GeoTextualObject]] = {}
        self._nodes: Dict[int, int] = {}
        self._version = 0
        self._frozen = False
        self._lock = threading.RLock()
        self._superseded_cache: Optional[Tuple[int, np.ndarray]] = None
        self._order_cache: Optional[Tuple[int, Tuple[Tuple[int, int, float, float], ...]]] = None
        self._node_positions_cache: Optional[Dict[int, int]] = None

    # ------------------------------------------------------------- introspection

    @property
    def bundle(self) -> IndexBundle:
        """The frozen base bundle the overlay merges against."""
        return self._bundle

    @property
    def version(self) -> int:
        """Monotonic mutation counter; folded into service cache keys."""
        return self._version

    @property
    def has_pending(self) -> bool:
        """``True`` when at least one mutation is pending."""
        return bool(self._entries)

    @property
    def pending_count(self) -> int:
        """Number of distinct object ids with a pending entry."""
        return len(self._entries)

    @property
    def frozen(self) -> bool:
        """``True`` while a compaction holds the overlay (mutations rejected)."""
        return self._frozen

    def is_live(self, object_id: int) -> bool:
        """Return ``True`` if ``object_id`` exists in the merged view."""
        with self._lock:
            if object_id in self._entries:
                return self._entries[object_id] is not None
            return self._base_has(object_id)

    def get(self, object_id: int) -> GeoTextualObject:
        """Return the merged view of ``object_id`` (overlay wins over base)."""
        with self._lock:
            if object_id in self._entries:
                entry = self._entries[object_id]
                if entry is None:
                    raise DatasetError(f"unknown object id {object_id}")
                return entry
            return self._bundle.corpus.get(object_id)

    # ---------------------------------------------------------------- mutations

    def add_object(self, obj: GeoTextualObject) -> None:
        """Add a new object; its id must not be live in the merged view."""
        with self._lock:
            self._check_writable()
            if self.is_live(obj.object_id):
                raise DatasetError(
                    f"cannot add object {obj.object_id}: the id is live in the merged view"
                )
            self._put(obj)

    def update_object(self, obj: GeoTextualObject) -> None:
        """Replace a live object (same id) with a new version."""
        with self._lock:
            self._check_writable()
            if not self.is_live(obj.object_id):
                raise DatasetError(f"cannot update unknown object id {obj.object_id}")
            self._put(obj)

    def remove_object(self, object_id: int) -> None:
        """Remove a live object from the merged view (tombstone)."""
        with self._lock:
            self._check_writable()
            if not self.is_live(object_id):
                raise DatasetError(f"cannot remove unknown object id {object_id}")
            self._entries[object_id] = None
            self._nodes.pop(object_id, None)
            self._bump()

    def set_rating(self, object_id: int, rating: float) -> None:
        """Change a live object's rating (a keyword-preserving update)."""
        with self._lock:
            self._check_writable()
            current = self.get(object_id)
            self._put(replace(current, rating=float(rating)))

    def freeze(self) -> None:
        """Reject further mutations (taken by a compaction in flight)."""
        with self._lock:
            self._frozen = True

    def unfreeze(self) -> None:
        """Accept mutations again (a compaction failed and rolled back)."""
        with self._lock:
            self._frozen = False

    def _check_writable(self) -> None:
        if self._frozen:
            raise DatasetError(
                "the overlay is frozen while a compaction is in flight; "
                "retry the mutation after the compaction finishes"
            )

    def _put(self, obj: GeoTextualObject) -> None:
        # Re-mutating an id keeps its first-insertion position (dict semantics),
        # which is exactly the canonical corpus position the compactor uses.
        self._entries[obj.object_id] = obj
        self._nodes[obj.object_id] = self._nearest_node(obj.x, obj.y)
        self._bump()

    def _bump(self) -> None:
        self._version += 1

    def _base_has(self, object_id: int) -> bool:
        try:
            self._bundle.corpus.get(object_id)
        except DatasetError:
            return False
        return True

    # -------------------------------------------------------------- merge pieces

    def _nearest_node(self, x: float, y: float) -> int:
        """Nearest network node by squared euclidean distance, smallest-id ties.

        Must be decision-identical to the grid mapper
        (:class:`repro.objects.mapping._PointGrid`) the cold rebuild maps with:
        same squared-distance arithmetic, global minimum, smallest node id on
        ties.
        """
        ids, xs, ys = self._bundle.compact.csr_node_arrays()
        distances = (xs - x) ** 2 + (ys - y) ** 2
        best = distances.min()
        return int(ids[distances == best].min())

    def _node_positions(self) -> Dict[int, int]:
        if self._node_positions_cache is None:
            ids = self._index.node_ids
            self._node_positions_cache = {int(ids[pos]): pos for pos in range(len(ids))}
        return self._node_positions_cache

    def _superseded_rows(self) -> np.ndarray:
        """Boolean mask over base object rows superseded by any pending entry."""
        cached = self._superseded_cache
        if cached is not None and cached[0] == self._version:
            return cached[1]
        mask = np.zeros(self._index.num_objects, dtype=bool)
        for object_id in self._entries:
            row = self._index.object_row(object_id)
            if row is not None:
                mask[row] = True
        self._superseded_cache = (self._version, mask)
        return mask

    def _merged_node_order(self) -> Tuple[Tuple[int, int, float, float], ...]:
        """Node first-touch order over the canonical mutated corpus.

        Returns ``(node_id, base_position_or_-1, x, y)`` tuples: nodes first
        touched by a surviving base row (ascending row order), then nodes first
        touched by an overlay entry (entry order).  Query-independent, so it is
        cached per overlay version.
        """
        cached = self._order_cache
        if cached is not None and cached[0] == self._version:
            return cached[1]
        index = self._index
        positions = np.asarray(index.obj_node_pos, dtype=np.int64)
        surviving = (~self._superseded_rows()) & (positions >= 0)
        rows = np.flatnonzero(surviving)
        sentinel = np.iinfo(np.int64).max
        first_touch = np.full(index.num_nodes, sentinel, dtype=np.int64)
        np.minimum.at(first_touch, positions[rows], rows)
        touched = np.flatnonzero(first_touch < sentinel)
        ordered = touched[np.argsort(first_touch[touched], kind="stable")]
        node_ids = index.node_ids
        node_x = index.node_x
        node_y = index.node_y
        order = [
            (int(node_ids[pos]), int(pos), float(node_x[pos]), float(node_y[pos]))
            for pos in ordered
        ]
        seen = {entry[0] for entry in order}
        position_of = self._node_positions()
        graph = self._bundle.graph_view()
        for object_id, obj in self._entries.items():
            if obj is None:
                continue
            node = self._nodes[object_id]
            if node in seen:
                continue
            seen.add(node)
            pos = position_of.get(node, -1)
            if pos >= 0:
                x, y = float(node_x[pos]), float(node_y[pos])
            else:
                x, y = graph.coords(node)
            order.append((node, pos, float(x), float(y)))
        result = tuple(order)
        self._order_cache = (self._version, result)
        return result

    def _score_object(
        self,
        obj: GeoTextualObject,
        keywords: Sequence[str],
        query_terms: Sequence[Tuple[str, float]],
        query_norm: float,
    ) -> float:
        """Scalar reference score of an overlay object under base statistics.

        ``text_relevance`` uses the object-side weights — which are IDF-free
        and therefore valid under mutation — with the vector-space model's
        arithmetic: ``(1 + ln tf)`` weights, L2 norm clamped to 1.0, dot with
        the base-pinned query weights ``query_terms`` in query-term order, one
        final division by ``query_norm``.
        """
        if self._mode is ScoringMode.TEXT_RELEVANCE:
            weights = {term: tf_weight(freq) for term, freq in obj.keywords.items()}
            norm = math.sqrt(sum(weight * weight for weight in weights.values()))
            if norm <= 0.0:
                norm = 1.0
            total = 0.0
            for term, query_weight in query_terms:
                weight = weights.get(term)
                if weight:
                    total += query_weight * (weight / norm)
            return total / query_norm
        if self._mode is ScoringMode.RATING_IF_MATCH:
            return obj.rating if obj.contains_any(keywords) else 0.0
        assert self._lm is not None
        return self._lm.score(obj, keywords)

    # ------------------------------------------------------------------- reads

    def node_weights(
        self,
        keywords: Iterable[str],
        window: Optional[Rectangle] = None,
        node_window: Optional[Rectangle] = None,
    ) -> Dict[int, float]:
        """Merged ``node_id → σ_v``: base columnar sums + overlay contributions.

        Drop-in replacement for
        :meth:`~repro.textindex.columnar.WeightPipeline.node_weights` while
        mutations are pending — same arguments, same positivity rule, and the
        dict order a cold rebuild of the mutated corpus would produce (see the
        module docstring).
        """
        with self._lock:
            keyword_list = list(keywords)
            base_sums = self._pipeline.node_sums(
                keyword_list, window=window, exclude_rows=self._superseded_rows()
            )
            # Base-pinned TF-IDF query weights, bit-equal to
            # VectorSpaceModel.query_vector over the base corpus. Terms the
            # base never saw weigh 0 and add nothing to the dot product.
            weighted, query_norm = self._index.query_weights(keyword_list)
            terms = self._index.terms
            query_terms = [(terms[tid], weight) for tid, weight in weighted]
            position_of = self._node_positions()
            # Accumulate overlay contributions onto the base sum of their node,
            # in entry order — the same add sequence the cold bincount applies
            # (surviving base rows first, then overlay rows).
            totals: Dict[int, float] = {}
            for object_id, obj in self._entries.items():
                if obj is None:
                    continue
                if window is not None and not window.contains(obj.x, obj.y):
                    continue
                score = self._score_object(obj, keyword_list, query_terms, query_norm)
                node = self._nodes[object_id]
                if node not in totals:
                    pos = position_of.get(node, -1)
                    totals[node] = float(base_sums[pos]) if pos >= 0 else 0.0
                totals[node] = totals[node] + score
            weights: Dict[int, float] = {}
            for node, pos, x, y in self._merged_node_order():
                value = totals.get(node)
                if value is None:
                    if pos < 0:
                        continue
                    value = float(base_sums[pos])
                if not value > 0.0:
                    continue
                if node_window is not None and not node_window.contains(x, y):
                    continue
                weights[node] = value
            return weights

    def materialize_corpus(self) -> ObjectCorpus:
        """The canonical mutated corpus: surviving base order, then entry order.

        This is the corpus order a cold rebuild must use for results to be
        byte-identical to overlay serving — and the order the compactor feeds
        to :meth:`IndexBundle.build`.
        """
        with self._lock:
            corpus = ObjectCorpus()
            for obj in self._bundle.corpus:
                if obj.object_id in self._entries:
                    continue
                corpus.add(obj)
            for _, obj in self._entries.items():
                if obj is not None:
                    corpus.add(obj)
            return corpus


# -------------------------------------------------------------------- delta log


def _op_object(op: Mapping) -> GeoTextualObject:
    try:
        object_id = int(op["id"])
        x = float(op["x"])
        y = float(op["y"])
        raw_keywords = op["keywords"]
        rating = float(op.get("rating", 1.0))
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"malformed mutation op {op!r}: {exc}") from exc
    if isinstance(raw_keywords, Mapping):
        keywords = {
            str(term).strip().lower(): int(freq)
            for term, freq in raw_keywords.items()
            if str(term).strip()
        }
        return GeoTextualObject(object_id, x, y, keywords, rating)
    return GeoTextualObject.create(object_id, x, y, [str(t) for t in raw_keywords], rating)


def apply_op(overlay: DeltaOverlay, op: Mapping) -> None:
    """Apply one mutation-log entry to ``overlay`` (validates as it goes)."""
    kind = op.get("op")
    if kind == "add":
        overlay.add_object(_op_object(op))
    elif kind == "update":
        overlay.update_object(_op_object(op))
    elif kind == "remove":
        overlay.remove_object(int(op["id"]))
    elif kind == "rate":
        overlay.set_rating(int(op["id"]), float(op["rating"]))
    else:
        raise ArtifactError(
            f"unknown mutation op {kind!r} (expected add / update / remove / rate)"
        )


def apply_ops(overlay: DeltaOverlay, ops: Iterable[Mapping]) -> int:
    """Apply mutation-log entries in order; returns how many were applied."""
    count = 0
    for op in ops:
        apply_op(overlay, op)
        count += 1
    return count


def read_delta_log(root: "Path | str") -> List[dict]:
    """Read the pending mutation ops at ``<root>/delta.json`` ([] if absent)."""
    path = Path(root) / DELTA_LOG_NAME
    if not path.is_file():
        return []
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
        ops = payload["ops"]
        if not isinstance(ops, list):
            raise ValueError("'ops' is not a list")
    except (ValueError, KeyError, TypeError) as exc:
        raise ArtifactError(
            f"malformed delta log at {path}: {exc}; delete the file to drop the "
            f"pending mutations or restore it from a backup"
        ) from exc
    return ops


def write_delta_log(root: "Path | str", ops: Sequence[Mapping]) -> None:
    """Atomically replace the delta log with ``ops``."""
    path = Path(root) / DELTA_LOG_NAME
    data = json.dumps({"ops": list(ops)}, indent=2, sort_keys=True).encode("utf-8")
    _write_bytes_atomic(path, data)


def append_delta_ops(root: "Path | str", ops: Sequence[Mapping]) -> int:
    """Append ``ops`` to the delta log; returns the total pending op count."""
    pending = read_delta_log(root)
    pending.extend(ops)
    write_delta_log(root, pending)
    return len(pending)


def clear_delta_log(root: "Path | str") -> None:
    """Remove the delta log (called after a successful compaction)."""
    path = Path(root) / DELTA_LOG_NAME
    if path.exists():
        path.unlink()


def overlay_from_delta_log(bundle: IndexBundle, root: "Path | str") -> Optional[DeltaOverlay]:
    """Build the overlay recorded at ``root`` (``None`` when nothing pending)."""
    ops = read_delta_log(root)
    if not ops:
        return None
    overlay = DeltaOverlay(bundle)
    apply_ops(overlay, ops)
    return overlay


# -------------------------------------------------------------- generation store


def generation_dirs(root: "Path | str") -> List[Tuple[int, Path]]:
    """Valid ``gen-NNNN`` directories under ``root``, ascending by number.

    Partially-written generations (a ``gen-NNNN`` directory without a readable
    manifest — the footprint of a crash mid-compaction, since the manifest is
    written last) are skipped with a warning naming the fix.
    """
    root = Path(root)
    found: List[Tuple[int, Path]] = []
    for child in sorted(root.glob(f"{GENERATION_PREFIX}*")):
        if not child.is_dir():
            continue
        match = _GENERATION_PATTERN.match(child.name)
        if match is None:
            continue
        if not (child / MANIFEST_NAME).is_file():
            warnings.warn(
                f"ignoring partially-written generation directory {child} (no "
                f"{MANIFEST_NAME}; most likely a crash mid-compaction) — delete the "
                f"directory or re-run `python -m repro compact {root}`",
                stacklevel=2,
            )
            continue
        found.append((int(match.group(1)), child))
    return found


def next_generation_name(root: "Path | str") -> str:
    """Name for the next generation directory (never reuses a number)."""
    root = Path(root)
    highest = 0
    for child in root.glob(f"{GENERATION_PREFIX}*"):
        match = _GENERATION_PATTERN.match(child.name)
        if match is not None:
            highest = max(highest, int(match.group(1)))
    return f"{GENERATION_PREFIX}{highest + 1:04d}"


def set_current_generation(root: "Path | str", name: str) -> None:
    """Atomically point ``CURRENT`` at the generation directory ``name``."""
    root = Path(root)
    target = root / name
    if not (target / MANIFEST_NAME).is_file():
        raise ArtifactError(
            f"refusing to point {CURRENT_NAME} at {target}: no readable {MANIFEST_NAME}"
        )
    _write_bytes_atomic(root / CURRENT_NAME, (name + "\n").encode("utf-8"))


def resolve_generation(root: "Path | str", warn_partial: bool = True) -> Path:
    """The artifact directory currently being served under ``root``.

    Follows the ``CURRENT`` pointer when present and valid; without a pointer
    the base artifact at ``root`` itself is the implicit generation 0.  When
    ``warn_partial`` is set, partially-written generation directories are
    reported (and ignored) on the way.

    Raises:
        ArtifactError: If ``CURRENT`` names a malformed, missing, or
            partially-written generation — the message says how to recover.
    """
    root = Path(root)
    if warn_partial:
        generation_dirs(root)
    pointer = root / CURRENT_NAME
    if not pointer.is_file():
        return root
    name = pointer.read_text(encoding="utf-8").strip()
    if not name:
        return root
    if _GENERATION_PATTERN.match(name) is None:
        raise ArtifactError(
            f"{pointer} names an invalid generation {name!r} (expected "
            f"{GENERATION_PREFIX}NNNN); delete the {CURRENT_NAME} file to fall back "
            f"to the base artifact"
        )
    target = root / name
    if not (target / MANIFEST_NAME).is_file():
        raise ArtifactError(
            f"{pointer} points at generation {name} but {target} has no readable "
            f"{MANIFEST_NAME} (crash mid-compaction?); re-run "
            f"`python -m repro compact {root}` or delete the {CURRENT_NAME} file to "
            f"fall back to the base artifact"
        )
    return target


# ---------------------------------------------------------------------- compactor


@dataclass(frozen=True)
class CompactionReport:
    """What one compaction did.

    Attributes:
        generation: Name of the new generation directory (``None`` for an
            in-memory compaction without an artifact root).
        path: The new generation directory (``None`` in memory).
        fingerprint: Dataset fingerprint of the compacted bundle.
        mutations: Number of pending overlay entries folded in.
        resharded: Whether a shard set was rebuilt for the new generation.
        seconds: Wall-clock compaction time.
    """

    generation: Optional[str]
    path: Optional[Path]
    fingerprint: str
    mutations: int
    resharded: bool
    seconds: float


class Compactor:
    """Background re-freeze of base + delta into a new artifact generation.

    The compactor freezes the engine's overlay, materialises the canonical
    mutated corpus, and rebuilds a full bundle from it through
    :meth:`IndexBundle.build` — the path a cold rebuild of the mutated
    dataset goes through.  With an artifact ``root`` it then persists the
    bundle as ``<root>/gen-NNNN/``
    — inheriting the served generation's chunk-compression codec, so a
    compacted compressed artifact stays compressed — mirrors the served
    generation's shard set onto the new generation, flips ``CURRENT``
    atomically, clears the delta log, and finally swaps the new bundle into
    the live engine (dropping the overlay and bumping ``bundle_generation``).

    Crash-safety: the manifest is the last file written into ``gen-NNNN`` and
    ``CURRENT`` is replaced atomically, so a crash at any point leaves either
    the old generation served (possibly with an ignorable partial directory)
    or the new generation fully live.

    Args:
        engine: A live :class:`~repro.engine.LCMSREngine` with a pending
            overlay attached.
        root: Optional artifact root to persist the new generation under; when
            omitted the compaction is in-memory only (the engine still swaps).
    """

    def __init__(self, engine, root: "Path | str | None" = None) -> None:
        self._engine = engine
        self._root = Path(root) if root is not None else None

    def compact(self) -> CompactionReport:
        """Run one compaction; see the class docstring for the protocol."""
        engine = self._engine
        overlay = engine.overlay
        if overlay is None or not overlay.has_pending:
            raise DatasetError(
                "nothing to compact: the engine has no pending overlay mutations"
            )
        if self._root is not None:
            read_manifest(self._root)  # fail fast on a non-artifact root
        overlay.freeze()
        try:
            start = time.perf_counter()
            mutations = overlay.pending_count
            corpus = overlay.materialize_corpus()
            base = engine.bundle
            new_bundle = IndexBundle.build(
                base.road_network(), corpus, scoring_mode=base.scoring_mode
            )
            generation: Optional[str] = None
            target: Optional[Path] = None
            resharded = False
            if self._root is not None:
                from repro.service.sharding import build_shards, load_shard_set

                served = resolve_generation(self._root, warn_partial=False)
                # The new generation inherits the served generation's
                # chunk-compression codec (None stays None).
                block = read_manifest(served).compression
                compression = (
                    compression_spec(str(block.get("codec")), block.get("level"))
                    if block is not None
                    else None
                )
                generation = next_generation_name(self._root)
                target = self._root / generation
                manifest = save_bundle(new_bundle, target, compression=compression)
                try:
                    shard_set = load_shard_set(served)
                except ArtifactError:
                    shard_set = None  # a stale set is not worth mirroring
                if shard_set is not None:
                    build_shards(
                        new_bundle,
                        target,
                        num_shards=len(shard_set.shards),
                        halo_margin=shard_set.halo_margin,
                        base_fingerprint=manifest.fingerprint,
                        compression=compression,
                    )
                    resharded = True
                set_current_generation(self._root, generation)
                clear_delta_log(self._root)
            engine.swap_bundle(new_bundle)
            return CompactionReport(
                generation=generation,
                path=target,
                fingerprint=new_bundle.fingerprint(),
                mutations=mutations,
                resharded=resharded,
                seconds=time.perf_counter() - start,
            )
        except BaseException:
            overlay.unfreeze()
            raise

    def compact_in_background(self) -> "Future[CompactionReport]":
        """Run :meth:`compact` on a background thread; returns its future."""
        executor = ThreadPoolExecutor(max_workers=1, thread_name_prefix="compactor")
        future = executor.submit(self.compact)
        future.add_done_callback(lambda _: executor.shutdown(wait=False))
        return future


__all__ = [
    "CURRENT_NAME",
    "DELTA_LOG_NAME",
    "GENERATION_PREFIX",
    "CompactionReport",
    "Compactor",
    "DeltaOverlay",
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
