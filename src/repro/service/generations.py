"""Mutable world: delta overlay, generation store, and compaction.

Every index in the stack is frozen at build time (CSR network, columnar scoring,
shard artifacts).  This module adds the write path on top of those frozen
artifacts, following the delta-main split of update-friendly stores (Polynesia's
update path vs. read-optimised replicas; the incremental-view-maintenance
framing of DBSP / Differential Dataflow):

* :class:`DeltaOverlay` — mutations (add / update / remove object, rating
  change) land in a small insertion-ordered dict.  Reads merge the base
  columnar σ_v sums with overlay contributions at query time: superseded base
  rows are masked out of the :meth:`~repro.textindex.columnar.WeightPipeline.node_sums`
  aggregation, and the live entries, kept as a small columnar delta
  (:meth:`~repro.textindex.columnar.WeightPipeline.delta`), are scored by the
  pipeline's own score function, so a merged weight map is bit-identical to a
  cold rebuild of the mutated corpus whenever the collection statistics allow
  it (see below).
* a tiny *generation store* — compacted artifacts live under
  ``<artifact>/gen-NNNN/`` next to the base artifact, and a ``CURRENT`` pointer
  file names the generation being served.  Each generation keeps its own
  delta log of pending mutations (``<generation>/delta.json``; the base's sits
  in the root), so a log always applies to the generation beside it.
  ``CURRENT`` is written atomically (temp sibling + rename), and
  :func:`save_bundle` writes the manifest last, so a crash mid-compaction
  leaves either the old ``CURRENT`` (with a manifest-less partial directory
  that loading detects and ignores) or the new generation, with its empty log,
  served.
* :class:`Compactor` — re-freezes base+delta into a new generation:
  materialise the mutated corpus in canonical order, rebuild a full
  :class:`~repro.service.bundle.IndexBundle` over the base generation's CSR
  snapshot (reused, never thawed) through the exact same build path a cold
  rebuild uses, persist it as ``gen-NNNN``, mirror the served
  generation's shard set, flip ``CURRENT`` (the one commit point: the old
  generation's log stays with it), and atomically swap the new bundle
  into the live engine (which bumps ``bundle_generation`` and invalidates the
  :class:`~repro.service.query_service.QueryService` caches).

IDF pinning policy
------------------
Overlay serving pins **all collection statistics to the base generation**: the
query vector's IDF weights (document frequencies and ``|D|``) and the language
model's collection term distribution (read off the base's ``post_tf`` column,
so the base corpus stays unread) come from the frozen base bundle and are
*not* updated by pending mutations.  This makes overlay results deterministic
and cheap (no incremental statistics maintenance), at the cost of overlay
results differing from a cold rebuild while statistics-changing mutations
(keyword adds/removes) are pending.  The guarantees, asserted by the
mutation-parity suite:

* **after compaction** results are byte-identical to a cold rebuild of the
  mutated dataset, for every scoring mode and every mutation — compaction goes
  through the cold build path over the base's own CSR snapshot, and a build
  from a network and from its snapshot are the same build, so this holds
  structurally (the compacted ``network.npz`` equals the base's, byte for
  byte);
* **before compaction** overlay-serving results are byte-identical to the
  post-compaction results whenever the pending mutations preserve collection
  statistics: always for ``rating_if_match`` (statistics-free), and for
  ``text_relevance`` / ``language_model`` under keyword-preserving mutations
  (rating changes, coordinate moves);
* **for every script** overlay-serving weights equal the scalar scorers over
  the mutated corpus with the base statistics pinned.

Merge ordering
--------------
The merged weight dict must reproduce the *cold* pipeline's dict order, which
is the node first-touch order over the mutated corpus.  The canonical mutated
corpus order is: surviving base objects in base order (skipping every id with a
pending overlay entry), then live overlay entries in first-mutation order.
:meth:`DeltaOverlay.materialize_corpus` (what the compactor rebuilds from)
materialises exactly that corpus order, and a pending object maps to the node
the rebuild maps it to: both ask the build's
:class:`~repro.objects.mapping._PointGrid`.  Each overlay version has one merge
view holding the superseded-row mask and the nodes in that first-touch order
(surviving base rows' nodes by first row, then the entries' nodes in entry
order), and the live entries' columnar delta.  A read scores the delta with
:meth:`~repro.textindex.columnar.WeightPipeline.delta_scores`, adds the kept
entries' scores onto the base
:meth:`~repro.textindex.columnar.WeightPipeline.node_sums` one by one in entry
order (the cold ``bincount``'s add sequence) and ends in the pipeline's
:func:`~repro.textindex.columnar.kept_positions` epilogue.
"""

from __future__ import annotations

import json
import re
import threading
import time
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ArtifactError, DatasetError
from repro.network.subgraph import Rectangle
from repro.objects.corpus import ObjectCorpus
from repro.objects.geoobject import GeoTextualObject
from repro.objects.mapping import _PointGrid
from repro.service.bundle import IndexBundle
from repro.service.persist import (
    MANIFEST_NAME,
    _write_bytes_atomic,
    compression_spec,
    read_manifest,
    save_bundle,
)
from repro.textindex.columnar import ObjectDelta, kept_positions

GENERATION_PREFIX = "gen-"
"""Directory-name prefix of compacted generations inside an artifact root."""

CURRENT_NAME = "CURRENT"
"""Pointer file naming the generation directory currently being served."""

DELTA_LOG_NAME = "delta.json"
"""Durable mutation log of one generation, in its directory (the CLI appends to it)."""

_GENERATION_PATTERN = re.compile(r"^gen-(\d{4,})$")


# ------------------------------------------------------------------ delta overlay


class _MergeView(NamedTuple):
    """The query-independent half of the merge for one overlay version.

    A *slot* is a base node-table position, or ``num_base + k`` for the k-th
    node only pending objects touch.
    """

    version: int
    superseded: np.ndarray  # base object rows with a pending entry
    delta: ObjectDelta  # the live entries, in entry order
    slots: np.ndarray  # slot of each live entry
    num_extra: int  # nodes only pending objects touch
    order: np.ndarray  # slots in the cold rebuild's first-touch order
    ids: np.ndarray  # node ids and coordinates of the slots in ``order``
    xs: np.ndarray
    ys: np.ndarray


class DeltaOverlay:
    """Pending mutations over a frozen :class:`IndexBundle`, merged at read time.

    The overlay is a single insertion-ordered dict ``object_id → object-or-None``
    (``None`` is a tombstone).  A dict entry *supersedes* the base row of the
    same id: the base row is masked out of the columnar aggregation and, for
    live entries, the overlay object is scored by the pipeline's own score
    function over a small columnar delta, against base-generation collection
    statistics (see the module docstring for the IDF pinning policy and the
    merge).  Entries map to their nearest node through the build's grid,
    built by the first add, update or rating change.

    Thread safety: mutations and :meth:`node_weights` serialise on one lock —
    the overlay is the small write-side structure, not a throughput path.
    A compaction :meth:`freeze`\\ s the overlay; frozen overlays reject further
    mutations, so a write from another thread during a compaction fails loudly
    instead of being lost.

    Args:
        bundle: The frozen base bundle.
    """

    def __init__(self, bundle: IndexBundle) -> None:
        pipeline = bundle.weight_pipeline()
        self._bundle = bundle
        self._pipeline = pipeline
        self._index = pipeline.index
        self._entries: Dict[int, Optional[GeoTextualObject]] = {}
        self._nodes: Dict[int, int] = {}
        self._version = 0
        self._frozen = False
        self._lock = threading.RLock()
        # Built on first use (the grid costs milliseconds on a NY-scale network).
        self._grid: Optional[_PointGrid] = None
        self._base_positions: Optional[Dict[int, int]] = None
        self._view: Optional[_MergeView] = None

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
        # The node first: a failing lookup must leave the overlay unchanged.
        if self._grid is None:
            self._grid = _PointGrid(self._bundle.compact)
        node = self._grid.nearest(obj.x, obj.y)
        # Re-mutating an id keeps its first-insertion position (dict semantics),
        # which is exactly the canonical corpus position the compactor uses.
        self._entries[obj.object_id] = obj
        self._nodes[obj.object_id] = node
        self._bump()

    def _bump(self) -> None:
        self._version += 1

    def _base_has(self, object_id: int) -> bool:
        # The object table holds exactly the corpus's ids, and reading it
        # leaves a loaded bundle's corpus unpickled.
        return self._index.object_row(object_id) is not None

    # -------------------------------------------------------------- merge pieces

    def _merge_view(self) -> _MergeView:
        """The query-independent half of the merge, built once per version."""
        view = self._view
        if view is not None and view.version == self._version:
            return view
        index = self._index
        num_base = index.num_nodes
        superseded = np.zeros(index.num_objects, dtype=bool)
        for object_id in self._entries:
            row = index.object_row(object_id)
            if row is not None:
                superseded[row] = True
        if self._base_positions is None:
            self._base_positions = {
                node: pos for pos, node in enumerate(index.node_ids.tolist())
            }
        # Slot of each live entry: its node's base node-table position, or
        # num_base + k for the k-th node only pending objects touch.
        extra: Dict[int, int] = {}
        live: List[GeoTextualObject] = []
        slots: List[int] = []
        for object_id, obj in self._entries.items():
            if obj is not None:
                node = self._nodes[object_id]
                slot = self._base_positions.get(node)
                if slot is None:
                    slot = extra.setdefault(node, num_base + len(extra))
                live.append(obj)
                slots.append(slot)
        # The cold rebuild's node order is first touch over the mutated corpus:
        # nodes of surviving base rows by first row, then the pending entries'
        # nodes in entry order.
        positions = np.asarray(index.obj_node_pos, dtype=np.int64)
        touched = positions[~superseded & (positions >= 0)]
        _, first = np.unique(touched, return_index=True)
        order = np.array(
            list(dict.fromkeys(touched[np.sort(first)].tolist() + slots)), dtype=np.int64
        )
        extra_coords = [self._bundle.compact.coords(node) for node in extra]
        ids = np.concatenate([index.node_ids, np.fromiter(extra, dtype=np.int64)])
        xs = np.concatenate([index.node_x, [x for x, _ in extra_coords]])
        ys = np.concatenate([index.node_y, [y for _, y in extra_coords]])
        self._view = _MergeView(self._version, superseded, self._pipeline.delta(live),
                                np.array(slots, dtype=np.int64), len(extra),
                                order, ids[order], xs[order], ys[order])
        return self._view

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
            view = self._merge_view()
            base = self._pipeline.node_sums(
                keyword_list, window=window, exclude_rows=view.superseded
            )
            sums = np.concatenate([base, np.zeros(view.num_extra)])
            scores, keep = self._pipeline.delta_scores(keyword_list, view.delta, window)
            # One add per kept entry onto its node's base sum, in entry order
            # (np.add.at adds in index order): the add sequence of the cold
            # bincount, surviving base rows first, then the pending rows.
            # Pre-summing per node would change it.
            np.add.at(sums, view.slots[keep], scores[keep])
            values = sums[view.order]
            pos = kept_positions(values, view.xs, view.ys, node_window)
            return dict(zip(view.ids[pos].tolist(), values[pos].tolist()))

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


def _malformed(op: object, exc: Exception) -> ArtifactError:
    reason = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
    return ArtifactError(f"malformed mutation op {op!r}: {reason}")


def _op_field(op: Mapping, name: str, kind: type):
    try:
        return kind(op[name])
    except (KeyError, TypeError, ValueError) as exc:
        raise _malformed(op, exc) from exc


def _op_object(op: Mapping) -> GeoTextualObject:
    try:
        object_id = int(op["id"])
        x = float(op["x"])
        y = float(op["y"])
        rating = float(op.get("rating", 1.0))
        raw_keywords = op["keywords"]
        if isinstance(raw_keywords, Mapping):
            keywords = {
                str(term).strip().lower(): int(freq)
                for term, freq in raw_keywords.items()
                if str(term).strip()
            }
        elif isinstance(raw_keywords, str):
            raise TypeError("'keywords' must be a list or a map of counts, not a string")
        else:
            terms = [str(t) for t in raw_keywords]
    except (KeyError, TypeError, ValueError) as exc:
        raise _malformed(op, exc) from exc
    if isinstance(raw_keywords, Mapping):
        return GeoTextualObject(object_id, x, y, keywords, rating)
    return GeoTextualObject.create(object_id, x, y, terms, rating)


def apply_op(overlay: DeltaOverlay, op: Mapping) -> None:
    """Apply one mutation-log entry to ``overlay`` (validates as it goes).

    Raises:
        ArtifactError: If the entry is not an object, names an unknown op, or
            lacks a field its op needs or holds one that does not convert (a
            non-numeric id or rating, ``null`` included, a keyword count that
            is not an integer, or keywords given as one string).
        DatasetError: If the mutation itself is invalid: an id that is unknown
            (or already live, for an add), or a non-finite coordinate or rating.
    """
    if not isinstance(op, Mapping):
        raise ArtifactError(f"malformed mutation op {op!r}: expected a JSON object")
    kind = op.get("op")
    if kind == "add":
        overlay.add_object(_op_object(op))
    elif kind == "update":
        overlay.update_object(_op_object(op))
    elif kind == "remove":
        overlay.remove_object(_op_field(op, "id", int))
    elif kind == "rate":
        overlay.set_rating(_op_field(op, "id", int), _op_field(op, "rating", float))
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


def read_delta_log(generation: "Path | str") -> List[dict]:
    """Read the pending mutation ops of the generation directory ``generation``
    (``<generation>/delta.json``; [] if absent)."""
    path = Path(generation) / DELTA_LOG_NAME
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


def write_delta_log(generation: "Path | str", ops: Sequence[Mapping]) -> None:
    """Atomically replace the generation's delta log with ``ops``."""
    path = Path(generation) / DELTA_LOG_NAME
    data = json.dumps({"ops": list(ops)}, indent=2, sort_keys=True).encode("utf-8")
    _write_bytes_atomic(path, data)


def append_delta_ops(generation: "Path | str", ops: Sequence[Mapping]) -> int:
    """Append ``ops`` to the generation's delta log; returns the total pending op count."""
    pending = read_delta_log(generation)
    pending.extend(ops)
    write_delta_log(generation, pending)
    return len(pending)


def overlay_from_delta_log(
    bundle: IndexBundle, generation: "Path | str"
) -> Optional[DeltaOverlay]:
    """Build the overlay the generation's delta log records over ``bundle``,
    that generation's bundle (``None`` when nothing is pending)."""
    ops = read_delta_log(generation)
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
    """Re-freeze of base + delta into a new artifact generation.

    The compactor freezes the engine's overlay, materialises the canonical
    mutated corpus, and rebuilds a full bundle from it and the served bundle's
    CSR snapshot through :meth:`IndexBundle.build` — the path a cold rebuild
    of the mutated dataset goes through.  With an artifact ``root`` it then persists the
    bundle as ``<root>/gen-NNNN/``
    — inheriting the served generation's chunk-compression codec, so a
    compacted compressed artifact stays compressed — mirrors the served
    generation's shard set onto the new generation, flips ``CURRENT``
    atomically, and finally swaps the new bundle into the live engine
    (dropping the overlay and bumping ``bundle_generation``).

    Crash-safety: the manifest is the last file written into ``gen-NNNN``,
    ``CURRENT`` is replaced atomically, and the folded mutations stay in the
    old generation's delta log while the new generation starts without one,
    so the flip is the one commit point: a crash at any point leaves either
    the old generation served with its log (possibly beside an ignorable
    partial directory) or the new generation fully live, each mutation
    applied once.

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
            # The base snapshot goes in as is: a mutation never touches the
            # road network, so the new generation keeps the base CSR.
            new_bundle = IndexBundle.build(
                base.compact, corpus, scoring_mode=base.scoring_mode
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
    "generation_dirs",
    "next_generation_name",
    "overlay_from_delta_log",
    "read_delta_log",
    "resolve_generation",
    "set_current_generation",
    "write_delta_log",
]
