"""Columnar scoring index: the array-first hot path from query window to σ_v.

The online cost of an LCMSR query is dominated by turning the query into per-node
weights σ_v: probe the text index for the relevant objects, score each object,
mask by the query window and aggregate object scores onto road-network nodes. The
object-loop implementation (:class:`~repro.textindex.relevance.RelevanceScorer`)
pays Python dict and attribute traffic per object; this module stores the same
information as flat numpy columns so the whole path runs as a handful of
vectorised kernels:

* **CSR term → object postings** — ``post_indptr`` / ``post_rows`` (int32) with
  parallel value columns: the precomputed normalised TF-IDF weight ``wto(t)``
  (float64), the raw term frequency (float32 — term frequencies are small
  integers, exactly representable), and the precomputed language-model
  log-probability ``ln((1-λ)·P(t|o) + λ·P(t|C))`` (float64).
* **Object table** — ``object_ids``, ``obj_x`` / ``obj_y``, ``obj_rating`` and
  ``obj_node_pos`` (the object's node as a dense position into the node table),
  all parallel arrays in corpus iteration order.
* **Node table + CSR node → object map** — the mapped node ids (in
  :class:`~repro.objects.mapping.NodeObjectMap` iteration order), their
  coordinates, and ``node_indptr`` / ``node_rows`` giving each node's object rows.
  With ``obj_node_pos`` they are the one stored copy of the object → node
  mapping, which :meth:`ColumnarScoringIndex.node_object_map` reads back.

**Exact parity contract.** :class:`WeightPipeline` reproduces the object-loop
reference (:meth:`RelevanceScorer.node_weights
<repro.textindex.relevance.RelevanceScorer.node_weights>`) *bit for bit*,
including the iteration order of the returned weight dict, for all three scoring
modes. That is why the score-bearing
value columns are float64 rather than float32: the reference path computes in
float64, and a float32 round trip would perturb low-order bits and break the
byte-identical solver results the refactor guarantees. The vectorised kernels are
arranged to replay the reference accumulation order exactly — per-object
contributions are added term by term in query order, and per-node sums are
accumulated in object-row (= corpus) order, which is precisely the order the
reference loop uses. (Term frequencies are integral, so the raw-tf column alone
stays float32 without any loss.)

The index is frozen after construction (treat every array as read-only — loaded
artifacts hand out read-only memory maps) and picklable. Like the vector-space
model it snapshots the corpus at build time: mutating the corpus afterwards makes
the index stale.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import IndexError_
from repro.network.subgraph import Rectangle
from repro.objects.corpus import ObjectCorpus
from repro.objects.mapping import NodeObjectMap
from repro.textindex.vector_space import idf_weight, tf_weight

DEFAULT_LM_SMOOTHING = 0.2
"""Smoothing λ the language-model columns are precomputed with by default."""

BOUND_RESOLUTION = 16
"""Side length of the square cell grid the bound aggregate columns are built on."""

BOUND_GUARD = 1.0 + 1e-9
"""Multiplicative guard applied to the per-object potentials before aggregation.

The potentials are query-independent *upper bounds* on any query's per-object
score; the closed forms are exact in real arithmetic but individual float steps
(e.g. ``sqrt(sum(wto^2))`` vs the reference's normalised dot product) can land a
couple of ulps apart. Inflating every nonzero potential by one part in 1e9 keeps
the bounds admissible without disturbing exact zeros (0 * guard == 0), which is
what the zero-mass skip tests rely on.
"""

BOUND_MODES: Tuple[str, ...] = ("text_relevance", "rating_if_match", "language_model")
"""Row order of the per-mode bound aggregate matrices (``cell_sigma_mass`` /
``cell_node_mass``)."""

CI_Z = 1.96
"""Normal z-score of the 95% two-sided confidence intervals the sampler reports."""

SAMPLE_MIN_PER_STRATUM = 8
"""Minimum rows sampled from a non-empty stratum (or the whole stratum if smaller)."""


class ColumnarScoringIndex:
    """Frozen columnar layout of the corpus + mapping for vectorised scoring.

    Instances are built once per dataset — :meth:`build` — or reconstructed from
    persisted arrays — :meth:`from_arrays` — and never mutated afterwards.

    Attributes (all numpy arrays; treat as read-only):
        terms: Sorted tuple of the corpus vocabulary; the term id *is* the
            position in this tuple.
        post_indptr / post_rows: CSR postings — term id → object rows (ascending
            within each term).
        post_tfidf: Normalised TF-IDF weight ``wto(t)`` per posting (float64).
        post_tf: Raw term frequency per posting (float32; integral values).
        lm_log_mixed: ``ln((1-λ)·P(t|o) + λ·P(t|C))`` per posting (float64).
        lm_log_base: ``ln(λ·P(t|C))`` per term (float64).
        lm_smoothing: The λ the language-model columns were computed with.
        object_ids / obj_x / obj_y / obj_rating: Object table, corpus order.
        obj_node_pos: Dense node-table position per object (-1 if unmapped).
        node_ids / node_x / node_y: Mapped-node table, mapping iteration order.
        node_indptr / node_rows: CSR node → object rows (ascending per node).
        bound_meta: ``[resolution, min_x, min_y, cell_w, cell_h]`` of the bound
            cell grid (float64).
        obj_cell: Row-major bound-grid cell per object (int32).
        cell_sigma_mass / cell_node_mass: Per-mode (rows follow ``BOUND_MODES``)
            per-cell sums of the guarded score potentials, by object cell /
            by node cell.
        term_df: Global document frequency ``f_t`` per term (int64). Equals the
            postings-row count per term for a full-corpus index, but is persisted
            separately so a spatial shard (whose postings cover only its own
            objects) still computes the corpus-global IDF weights.
        corpus_meta: ``[global_num_objects]`` (int64) — the corpus size ``|D|``
            the IDF weights are computed against, which for a shard is the size
            of the *full* corpus, not the shard's object-row count.
    """

    def __init__(
        self,
        terms: Sequence[str],
        arrays: Mapping[str, np.ndarray],
        lm_smoothing: float = DEFAULT_LM_SMOOTHING,
    ) -> None:
        self.terms: Tuple[str, ...] = tuple(terms)
        self.lm_smoothing = float(lm_smoothing)
        for name in ARRAY_FIELDS:
            if name not in arrays:
                raise IndexError_(f"columnar index is missing array {name!r}")
            setattr(self, name, arrays[name])
        if len(self.post_indptr) != len(self.terms) + 1:
            raise IndexError_(
                f"postings indptr length {len(self.post_indptr)} does not match "
                f"{len(self.terms)} terms"
            )
        if len(self.node_indptr) != len(self.node_ids) + 1:
            raise IndexError_("node map indptr length does not match the node table")
        self._term_ids: Dict[str, int] = {t: i for i, t in enumerate(self.terms)}
        self._object_rows: Optional[Dict[int, int]] = None

    # ------------------------------------------------------------------ build
    @classmethod
    def build(
        cls,
        corpus: ObjectCorpus,
        mapping: NodeObjectMap,
        node_coords,
        lm_smoothing: float = DEFAULT_LM_SMOOTHING,
    ) -> "ColumnarScoringIndex":
        """Freeze ``corpus`` + ``mapping`` into the columnar layout.

        Args:
            corpus: The dataset's objects (rows follow its iteration order).
            mapping: Object → node assignment; nodes keep its iteration order.
            node_coords: ``node_id → (x, y)`` callable for the mapped nodes —
                typically ``GraphView.coords`` of the indexed network.
            lm_smoothing: λ for the precomputed language-model columns.

        Raises:
            IndexError_: If the mapping references objects absent from the corpus
                or ``lm_smoothing`` is outside (0, 1).
        """
        if not 0.0 < lm_smoothing < 1.0:
            raise IndexError_(f"lm smoothing must be in (0, 1), got {lm_smoothing}")

        objects = list(corpus)
        num_objects = len(objects)
        row_of: Dict[int, int] = {
            obj.object_id: row for row, obj in enumerate(objects)
        }
        terms = tuple(sorted(corpus.vocabulary()))
        term_ids = {t: i for i, t in enumerate(terms)}
        num_terms = len(terms)

        # --- postings (counting sort by term id; rows ascend within a term) ---
        counts = np.zeros(num_terms + 1, dtype=np.int64)
        for obj in objects:
            for term in obj.keywords:
                counts[term_ids[term] + 1] += 1
        post_indptr = np.cumsum(counts, dtype=np.int64)
        nnz = int(post_indptr[-1])
        post_rows = np.empty(nnz, dtype=np.int32)
        post_tfidf = np.empty(nnz, dtype=np.float64)
        post_tf = np.empty(nnz, dtype=np.float32)
        lm_log_mixed = np.empty(nnz, dtype=np.float64)
        lm_log_base = np.zeros(num_terms, dtype=np.float64)

        collection_counts = corpus.collection_term_counts()
        collection_total = corpus.collection_total_terms()
        for term, tid in term_ids.items():
            # Replicates LanguageModelScorer._collection_probability exactly.
            p_col = (
                collection_counts.get(term, 0) / collection_total
                if collection_total
                else 0.0
            )
            base = lm_smoothing * p_col
            lm_log_base[tid] = math.log(base) if base > 0.0 else 0.0

        cursor = post_indptr[:-1].copy()
        one_minus = 1.0 - lm_smoothing
        for row, obj in enumerate(objects):
            object_total = sum(obj.keywords.values())
            # VectorSpaceModel's per-object arithmetic, inlined: same float
            # operations in the same order ⇒ bit-identical weights, without the
            # model's corpus-sized weight tables.
            weights = {term: tf_weight(freq) for term, freq in obj.keywords.items()}
            norm = math.sqrt(sum(w * w for w in weights.values()))
            denominator = norm if norm > 0 else 1.0
            wto = {term: w / denominator for term, w in weights.items()}
            for term, tf in obj.keywords.items():
                tid = term_ids[term]
                slot = cursor[tid]
                cursor[tid] += 1
                post_rows[slot] = row
                post_tfidf[slot] = wto[term]
                post_tf[slot] = tf
                # Same float operations as LanguageModelScorer.score, so the
                # precomputed logs replay its arithmetic bit for bit.
                p_doc = tf / object_total if object_total else 0.0
                p_col = (
                    collection_counts.get(term, 0) / collection_total
                    if collection_total
                    else 0.0
                )
                mixed = one_minus * p_doc + lm_smoothing * p_col
                lm_log_mixed[slot] = math.log(mixed) if mixed > 0.0 else 0.0

        # --- object table ---
        object_ids = np.fromiter(
            (obj.object_id for obj in objects), dtype=np.int64, count=num_objects
        )
        obj_x = np.fromiter((obj.x for obj in objects), dtype=np.float64, count=num_objects)
        obj_y = np.fromiter((obj.y for obj in objects), dtype=np.float64, count=num_objects)
        obj_rating = np.fromiter(
            (obj.rating for obj in objects), dtype=np.float64, count=num_objects
        )

        # --- node table + node → object CSR (mapping iteration order) ---
        node_id_list: List[int] = []
        node_indptr_list: List[int] = [0]
        node_row_list: List[int] = []
        obj_node_pos = np.full(num_objects, -1, dtype=np.int32)
        for node_id, object_list in mapping.node_to_objects.items():
            pos = len(node_id_list)
            node_id_list.append(node_id)
            for object_id in object_list:
                row = row_of.get(object_id)
                if row is None:
                    raise IndexError_(
                        f"mapping references object {object_id} absent from the corpus"
                    )
                node_row_list.append(row)
                obj_node_pos[row] = pos
            node_indptr_list.append(len(node_row_list))
        node_ids = np.asarray(node_id_list, dtype=np.int64)
        coords = [node_coords(node_id) for node_id in node_id_list]
        node_x = np.asarray([c[0] for c in coords], dtype=np.float64)
        node_y = np.asarray([c[1] for c in coords], dtype=np.float64)

        bound_arrays = _bound_aggregate_arrays(
            post_indptr=post_indptr,
            post_rows=post_rows,
            post_tfidf=post_tfidf,
            lm_log_mixed=lm_log_mixed,
            lm_log_base=lm_log_base,
            obj_x=obj_x,
            obj_y=obj_y,
            obj_rating=obj_rating,
            obj_node_pos=obj_node_pos,
            node_x=node_x,
            node_y=node_y,
        )

        arrays = {
            "post_indptr": np.asarray(post_indptr, dtype=np.int32)
            if nnz <= np.iinfo(np.int32).max
            else post_indptr,
            "post_rows": post_rows,
            "post_tfidf": post_tfidf,
            "post_tf": post_tf,
            "lm_log_mixed": lm_log_mixed,
            "lm_log_base": lm_log_base,
            "object_ids": object_ids,
            "obj_x": obj_x,
            "obj_y": obj_y,
            "obj_rating": obj_rating,
            "obj_node_pos": obj_node_pos,
            "node_ids": node_ids,
            "node_x": node_x,
            "node_y": node_y,
            "node_indptr": np.asarray(node_indptr_list, dtype=np.int32),
            "node_rows": np.asarray(node_row_list, dtype=np.int32),
            "term_df": np.diff(np.asarray(post_indptr, dtype=np.int64)),
            "corpus_meta": np.array([num_objects], dtype=np.int64),
        }
        arrays.update(bound_arrays)
        return cls(terms, arrays, lm_smoothing=lm_smoothing)

    @classmethod
    def from_arrays(
        cls,
        terms: Sequence[str],
        arrays: Mapping[str, np.ndarray],
        lm_smoothing: float,
    ) -> "ColumnarScoringIndex":
        """Reconstruct an index from persisted arrays (see :mod:`repro.service.persist`).

        The arrays may be read-only memory maps; the index never writes to them.
        """
        return cls(terms, arrays, lm_smoothing=lm_smoothing)

    def subset_for_extent(self, extent: Rectangle) -> "ColumnarScoringIndex":
        """Restrict the index to one spatial shard's extent, keeping global stats.

        The subset keeps every object whose coordinates lie inside ``extent``
        (borders included — the same comparison :meth:`WeightPipeline.node_weights`
        masks with) **or whose mapped node does**: an object can sit outside the
        extent while its network node is inside (datasets scatter objects beyond
        the node bounding box), and dropping it would silently shrink that
        node's σ. Every node inside ``extent`` or carrying a kept object is kept
        too, all in their original table order. Because the full index's
        row/node order is preserved under subsetting, every accumulation the
        pipeline performs for a query window ``Λ ⊆ extent`` adds the same float64
        values in the same order as the full index — the kernel outputs are
        bit-identical.

        What stays *global* (copied, not recomputed): the vocabulary and term
        ids, ``lm_log_base`` (the collection language model), ``term_df`` and
        ``corpus_meta`` (the IDF statistics), and the precomputed per-posting
        value columns. What is *local*: the object/node tables, the postings
        rows (filtered and renumbered; ``post_indptr`` keeps its full
        vocabulary length) and the bound-cell aggregates, which are recomputed
        over the shard so zero-mass window skips stay admissible (skip-decision
        differences are result-identical — the pruning-parity contract).
        """
        keep_obj = extent.contains_points(self.obj_x, self.obj_y)
        keep_node = extent.contains_points(self.node_x, self.node_y)
        # σ parity: an in-extent node keeps its full object list, even objects
        # whose own coordinates fall outside the extent.
        node_pos = self.obj_node_pos
        mapped_obj = node_pos >= 0
        keep_obj = keep_obj | (mapped_obj & keep_node[np.where(mapped_obj, node_pos, 0)])
        kept_node_pos = node_pos[keep_obj]
        keep_node[kept_node_pos[kept_node_pos >= 0]] = True

        num_objects = self.num_objects
        num_nodes = self.num_nodes
        new_row = np.full(num_objects, -1, dtype=np.int64)
        new_row[np.flatnonzero(keep_obj)] = np.arange(int(keep_obj.sum()))
        new_pos = np.full(num_nodes, -1, dtype=np.int64)
        new_pos[np.flatnonzero(keep_node)] = np.arange(int(keep_node.sum()))

        # Postings: drop rows of dropped objects, renumber the survivors. The
        # filter preserves posting order and the row renumbering is monotone,
        # so rows still ascend within each term.
        post_indptr = np.asarray(self.post_indptr, dtype=np.int64)
        post_tids = np.repeat(np.arange(self.num_terms), np.diff(post_indptr))
        keep_post = keep_obj[self.post_rows]
        sub_post_rows = new_row[self.post_rows[keep_post]].astype(np.int32)
        counts = np.bincount(post_tids[keep_post], minlength=self.num_terms)
        sub_post_indptr = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(counts, dtype=np.int64)]
        )
        if len(sub_post_rows) <= np.iinfo(np.int32).max:
            sub_post_indptr = sub_post_indptr.astype(np.int32)

        # Node → object CSR: keep entries whose node AND object survive.
        node_indptr = np.asarray(self.node_indptr, dtype=np.int64)
        node_owner = np.repeat(np.arange(num_nodes), np.diff(node_indptr))
        keep_entry = keep_node[node_owner] & keep_obj[self.node_rows]
        sub_node_rows = new_row[self.node_rows[keep_entry]].astype(np.int32)
        owner_counts = np.bincount(
            new_pos[node_owner[keep_entry]], minlength=int(keep_node.sum())
        )
        sub_node_indptr = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(owner_counts, dtype=np.int64)]
        ).astype(np.int32)

        obj_node_pos = self.obj_node_pos[keep_obj].astype(np.int64)
        mapped = obj_node_pos >= 0
        obj_node_pos[mapped] = new_pos[obj_node_pos[mapped]]
        obj_node_pos = obj_node_pos.astype(np.int32)

        obj_x = np.asarray(self.obj_x[keep_obj])
        obj_y = np.asarray(self.obj_y[keep_obj])
        obj_rating = np.asarray(self.obj_rating[keep_obj])
        node_x = np.asarray(self.node_x[keep_node])
        node_y = np.asarray(self.node_y[keep_node])
        lm_log_base = np.asarray(self.lm_log_base)

        bound_arrays = _bound_aggregate_arrays(
            post_indptr=np.asarray(sub_post_indptr, dtype=np.int64),
            post_rows=sub_post_rows,
            post_tfidf=np.asarray(self.post_tfidf[keep_post]),
            lm_log_mixed=np.asarray(self.lm_log_mixed[keep_post]),
            lm_log_base=lm_log_base,
            obj_x=obj_x,
            obj_y=obj_y,
            obj_rating=obj_rating,
            obj_node_pos=obj_node_pos,
            node_x=node_x,
            node_y=node_y,
        )

        arrays = {
            "post_indptr": sub_post_indptr,
            "post_rows": sub_post_rows,
            "post_tfidf": np.asarray(self.post_tfidf[keep_post]),
            "post_tf": np.asarray(self.post_tf[keep_post]),
            "lm_log_mixed": np.asarray(self.lm_log_mixed[keep_post]),
            "lm_log_base": lm_log_base,
            "object_ids": np.asarray(self.object_ids[keep_obj]),
            "obj_x": obj_x,
            "obj_y": obj_y,
            "obj_rating": obj_rating,
            "obj_node_pos": obj_node_pos,
            "node_ids": np.asarray(self.node_ids[keep_node]),
            "node_x": node_x,
            "node_y": node_y,
            "node_indptr": sub_node_indptr,
            "node_rows": sub_node_rows,
            "term_df": np.asarray(self.term_df),
            "corpus_meta": np.asarray(self.corpus_meta),
        }
        arrays.update(bound_arrays)
        return type(self)(self.terms, arrays, lm_smoothing=self.lm_smoothing)

    # ------------------------------------------------------------------ pickling
    def __getstate__(self):
        state = dict(self.__dict__)
        # The row lookup is a per-process cache; memmapped arrays materialise on
        # pickle, which keeps pickles self-contained.
        state["_object_rows"] = None
        return state

    # ------------------------------------------------------------------ shape facts
    @property
    def num_terms(self) -> int:
        """Vocabulary size."""
        return len(self.terms)

    @property
    def num_objects(self) -> int:
        """Number of object rows in this index (for a shard: its own objects)."""
        return len(self.object_ids)

    @property
    def global_num_objects(self) -> int:
        """Corpus size ``|D|`` the IDF weights use (full corpus, even for shards)."""
        return int(self.corpus_meta[0])

    @property
    def num_nodes(self) -> int:
        """Number of mapped nodes in the node table."""
        return len(self.node_ids)

    @property
    def num_postings(self) -> int:
        """Total number of (term, object) postings."""
        return len(self.post_rows)

    def arrays(self) -> Dict[str, np.ndarray]:
        """Return the array columns keyed by field name (the persistence surface)."""
        return {name: getattr(self, name) for name in ARRAY_FIELDS}

    # ------------------------------------------------------------------ lookups
    def term_id(self, term: str) -> Optional[int]:
        """Return the term's id, or ``None`` if it is not in the vocabulary."""
        return self._term_ids.get(term)

    def document_frequency(self, term: str) -> int:
        """Return the number of corpus objects containing ``term`` (``f_t``).

        Reads the persisted global ``term_df`` column, not the local postings
        length: on a spatial shard the two differ, and the IDF weights must be
        computed against the full corpus for shard answers to stay bit-identical
        to the unsharded index.
        """
        tid = self._term_ids.get(term)
        if tid is None:
            return 0
        return int(self.term_df[tid])

    def most_frequent_terms(self, count: int) -> List[Tuple[str, int]]:
        """Return the ``count`` terms with the most object rows, as ``(term, df)``.

        Equals :meth:`ObjectCorpus.most_frequent_terms
        <repro.objects.corpus.ObjectCorpus.most_frequent_terms>` of the
        indexed objects: each (term, object) pair is one posting, so a term's
        local document frequency is its postings count. Ties go to the
        smaller term, and terms with no rows here (a shard keeps the full
        vocabulary) are left out.
        """
        counts = np.diff(np.asarray(self.post_indptr, dtype=np.int64)).tolist()
        ranked = sorted(
            ((term, df) for term, df in zip(self.terms, counts) if df > 0),
            key=lambda item: (-item[1], item[0]),
        )
        return ranked[:count]

    def postings(self, term: str) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(object_rows, tfidf_weights, raw_tf)`` slices for ``term``."""
        tid = self._term_ids.get(term)
        if tid is None:
            empty = np.empty(0, dtype=np.int32)
            return empty, np.empty(0, dtype=np.float64), np.empty(0, dtype=np.float32)
        start, end = int(self.post_indptr[tid]), int(self.post_indptr[tid + 1])
        return (
            self.post_rows[start:end],
            self.post_tfidf[start:end],
            self.post_tf[start:end],
        )

    def object_rows_at_node(self, node_pos: int) -> np.ndarray:
        """Return the object rows mapped to the node at table position ``node_pos``."""
        start, end = int(self.node_indptr[node_pos]), int(self.node_indptr[node_pos + 1])
        return self.node_rows[start:end]

    def object_row(self, object_id: int) -> Optional[int]:
        """Return the table row of ``object_id`` (``None`` if unknown); cached lazily."""
        rows = self._object_rows
        if rows is None:
            rows = {
                int(object_id): row
                for row, object_id in enumerate(self.object_ids.tolist())
            }
            self._object_rows = rows
        return rows.get(object_id)

    def node_object_map(self) -> NodeObjectMap:
        """The object → node mapping, read off the node table and CSR columns.

        Nodes follow the node table and each node's objects its CSR rows, so a
        full index gives back the mapping it was built from, key orders
        included. ``object_to_node`` follows the object table and leaves
        unmapped objects out.
        """
        object_ids = np.asarray(self.object_ids).tolist()
        node_ids = np.asarray(self.node_ids).tolist()
        indptr = np.asarray(self.node_indptr).tolist()
        rows = np.asarray(self.node_rows).tolist()
        node_to_objects = {
            node_id: [object_ids[row] for row in rows[indptr[pos] : indptr[pos + 1]]]
            for pos, node_id in enumerate(node_ids)
        }
        object_to_node = {
            object_id: node_ids[pos]
            for object_id, pos in zip(object_ids, np.asarray(self.obj_node_pos).tolist())
            if pos >= 0
        }
        return NodeObjectMap(
            node_to_objects=node_to_objects, object_to_node=object_to_node
        )

    # ------------------------------------------------------------------ query kernels
    def query_weights(self, keywords: Sequence[str]) -> Tuple[List[Tuple[int, float]], float]:
        """Return ``([(term_id, idf_weight)], query_norm)`` for normalised keywords.

        Replicates :meth:`VectorSpaceModel.query_vector
        <repro.textindex.vector_space.VectorSpaceModel.query_vector>` bit for bit
        (unknown terms carry weight 0 and are dropped from the id list, but still
        participate — as zeros — in the norm, exactly as in the reference).
        """
        corpus_size = self.global_num_objects
        weighted: List[Tuple[int, float]] = []
        norm_sq = 0.0
        for term in keywords:
            tid = self._term_ids.get(term)
            weight = (
                idf_weight(corpus_size, self.document_frequency(term))
                if tid is not None
                else 0.0
            )
            norm_sq += weight * weight
            if tid is not None and weight > 0.0:
                weighted.append((tid, weight))
        norm = math.sqrt(norm_sq)
        return weighted, (norm if norm > 0 else 1.0)

    def tfidf_object_scores(self, keywords: Sequence[str]) -> np.ndarray:
        """Return the dense per-object TF-IDF score column σ(o.ψ, Q.ψ) (float64).

        ``keywords`` must already be normalised and de-duplicated (an
        :class:`~repro.core.query.LCMSRQuery` guarantees this). Each entry is bit
        identical to :meth:`VectorSpaceModel.score
        <repro.textindex.vector_space.VectorSpaceModel.score>` for the same
        object, because contributions are accumulated in query-term order with
        the same float64 operations.
        """
        accumulator = np.zeros(self.num_objects, dtype=np.float64)
        weighted, norm = self.query_weights(keywords)
        if not weighted:
            return accumulator
        indptr = self.post_indptr
        for tid, query_weight in weighted:
            start, end = int(indptr[tid]), int(indptr[tid + 1])
            if start == end:
                continue
            rows = self.post_rows[start:end]
            accumulator[rows] += query_weight * self.post_tfidf[start:end]
        np.divide(accumulator, norm, out=accumulator)
        return accumulator

    def matched_objects(self, keywords: Sequence[str]) -> np.ndarray:
        """Boolean column: object contains at least one of the (normalised) keywords."""
        matched = np.zeros(self.num_objects, dtype=bool)
        indptr = self.post_indptr
        for term in keywords:
            tid = self._term_ids.get(term)
            if tid is None:
                continue
            matched[self.post_rows[int(indptr[tid]) : int(indptr[tid + 1])]] = True
        return matched

    def lm_object_scores(self, keywords: Sequence[str]) -> np.ndarray:
        """Dense per-object language-model scores (float64), bit-equal to the scalar.

        Replays :meth:`LanguageModelScorer.score
        <repro.textindex.relevance.LanguageModelScorer.score>`: for every query
        term present in the collection, each object accrues either the
        precomputed ``ln(mixed)`` (object contains the term) or ``ln(λ·P(t|C))``
        (it does not) — the same additions in the same order the scalar loop
        performs — and the shared background sum is subtracted once at the end.
        Objects matching no query term land on exactly 0.0.
        """
        num_objects = self.num_objects
        scores = np.zeros(num_objects, dtype=np.float64)
        valid_tids = [
            tid
            for term in keywords
            if (tid := self._term_ids.get(term)) is not None
            and self.lm_log_base[tid] != 0.0
        ]
        if not valid_tids:
            return scores
        background = 0.0
        indptr = self.post_indptr
        for tid in valid_tids:
            log_base = float(self.lm_log_base[tid])
            column = np.full(num_objects, log_base, dtype=np.float64)
            start, end = int(indptr[tid]), int(indptr[tid + 1])
            column[self.post_rows[start:end]] = self.lm_log_mixed[start:end]
            scores += column
            background += log_base
        scores -= background
        np.maximum(scores, 0.0, out=scores)
        return scores


def _bound_aggregate_arrays(
    post_indptr: np.ndarray,
    post_rows: np.ndarray,
    post_tfidf: np.ndarray,
    lm_log_mixed: np.ndarray,
    lm_log_base: np.ndarray,
    obj_x: np.ndarray,
    obj_y: np.ndarray,
    obj_rating: np.ndarray,
    obj_node_pos: np.ndarray,
    node_x: np.ndarray,
    node_y: np.ndarray,
) -> Dict[str, np.ndarray]:
    """Compute the per-cell bound aggregate columns for all three scoring modes.

    The per-object *potentials* are query-independent upper bounds on any query's
    score of that object:

    * ``text_relevance`` — ``||wto||_2`` (Cauchy–Schwarz: the query weight vector
      is non-negative with unit-or-larger norm divisor, so the normalised dot
      product never exceeds the object vector's norm).
    * ``rating_if_match`` — ``max(rating, 0)`` (the score is the rating when
      matched, else 0).
    * ``language_model`` — ``Σ_t max(ln mixed − ln base, 0)`` over the object's
      terms with a positive collection probability (each query term the object
      contains contributes exactly that difference; terms it lacks contribute 0).

    Each nonzero potential is inflated by :data:`BOUND_GUARD` to absorb ulp-level
    float divergence from the closed forms, aggregated onto nodes via the object →
    node map, and then onto a ``BOUND_RESOLUTION``-square grid of cells covering
    the combined object + node bounding box.
    """
    resolution = BOUND_RESOLUTION
    num_cells = resolution * resolution
    num_modes = len(BOUND_MODES)
    num_objects = len(obj_x)
    num_nodes = len(node_x)
    num_terms = len(lm_log_base)

    # --- per-object potentials (rows follow BOUND_MODES order) ---
    tfidf_ub = np.sqrt(
        np.bincount(post_rows, weights=post_tfidf * post_tfidf, minlength=num_objects)
    )
    if len(post_rows):
        tids = np.repeat(np.arange(num_terms), np.diff(post_indptr))
        base = lm_log_base[tids]
        diff = np.where(base != 0.0, lm_log_mixed - base, 0.0)
        np.maximum(diff, 0.0, out=diff)
        lm_ub = np.bincount(post_rows, weights=diff, minlength=num_objects)
    else:
        lm_ub = np.zeros(num_objects, dtype=np.float64)
    potentials = np.stack(
        [
            tfidf_ub * BOUND_GUARD,
            np.maximum(obj_rating, 0.0) * BOUND_GUARD,
            lm_ub * BOUND_GUARD,
        ]
    )

    # --- cell geometry: combined object + node bounding box ---
    if num_objects + num_nodes > 0:
        all_x = np.concatenate([obj_x, node_x])
        all_y = np.concatenate([obj_y, node_y])
        min_x, max_x = float(all_x.min()), float(all_x.max())
        min_y, max_y = float(all_y.min()), float(all_y.max())
    else:
        min_x = min_y = max_x = max_y = 0.0
    cell_w = (max_x - min_x) / resolution or 1.0
    cell_h = (max_y - min_y) / resolution or 1.0

    def cells_of(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        cx = np.clip(((xs - min_x) / cell_w).astype(np.int64), 0, resolution - 1)
        cy = np.clip(((ys - min_y) / cell_h).astype(np.int64), 0, resolution - 1)
        return (cy * resolution + cx).astype(np.int32)

    obj_cell = cells_of(obj_x, obj_y)
    node_cell = cells_of(node_x, node_y)

    # --- aggregation (mapped objects only: unmapped ones never reach σ_v) ---
    mapped = obj_node_pos >= 0
    mapped_cells = obj_cell[mapped]
    cell_sigma_mass = np.zeros((num_modes, num_cells), dtype=np.float64)
    cell_node_mass = np.zeros((num_modes, num_cells), dtype=np.float64)
    for row in range(num_modes):
        mapped_ub = potentials[row][mapped]
        cell_sigma_mass[row] = np.bincount(
            mapped_cells, weights=mapped_ub, minlength=num_cells
        )
        node_ub = np.bincount(
            obj_node_pos[mapped], weights=mapped_ub, minlength=num_nodes
        )
        cell_node_mass[row] = np.bincount(
            node_cell, weights=node_ub, minlength=num_cells
        )

    return {
        "bound_meta": np.array(
            [float(resolution), min_x, min_y, cell_w, cell_h], dtype=np.float64
        ),
        "obj_cell": obj_cell,
        "cell_sigma_mass": cell_sigma_mass,
        "cell_node_mass": cell_node_mass,
    }


ARRAY_FIELDS: Tuple[str, ...] = (
    "post_indptr",
    "post_rows",
    "post_tfidf",
    "post_tf",
    "lm_log_mixed",
    "lm_log_base",
    "object_ids",
    "obj_x",
    "obj_y",
    "obj_rating",
    "obj_node_pos",
    "node_ids",
    "node_x",
    "node_y",
    "node_indptr",
    "node_rows",
    "bound_meta",
    "obj_cell",
    "cell_sigma_mass",
    "cell_node_mass",
    "term_df",
    "corpus_meta",
)
"""Names of the persisted array columns, in canonical order.

The four ``bound_meta`` / ``obj_cell`` / ``cell_*`` columns are the per-grid-cell
aggregates backing :class:`repro.core.bounds.UpperBoundIndex` and the sampler's
strata (format version 7 keeps only these four of version 3's eight); see
:func:`_bound_aggregate_arrays` for their definitions. ``term_df`` and
``corpus_meta`` (format version 4) persist the corpus-global document
frequencies and corpus size so spatial shards — whose postings cover only their
own objects — still compute the exact global IDF weights (see
:meth:`ColumnarScoringIndex.subset_for_extent`).
"""


def kept_positions(
    sums: np.ndarray,
    xs: np.ndarray,
    ys: np.ndarray,
    node_window: Optional[Rectangle],
) -> np.ndarray:
    """The epilogue every σ_v read ends with: which node positions it returns.

    Returns the ascending positions whose sum is ``> 0.0`` and whose node
    coordinates ``(xs, ys)`` lie in ``node_window`` (every node when ``None``).
    Exact, sampled and delta-overlay reads build their ``node_id → value``
    dicts from these positions, in this order.
    """
    keep = sums > 0.0
    if node_window is not None:
        keep &= node_window.contains_points(xs, ys)
    return np.flatnonzero(keep)


class WeightPipeline:
    """Vectorised query → σ_v computation over a :class:`ColumnarScoringIndex`.

    A pipeline is bound to one scoring mode (the bundle's) at construction; its
    :meth:`node_weights` is the drop-in replacement for the object-loop scorer on
    the instance-build hot path and returns bit-identical weights in the same
    dict order (see the module docstring for why that holds).

    Args:
        index: The frozen columnar index.
        mode: The per-object weight definition to compute. Accepts the
            :class:`~repro.textindex.relevance.ScoringMode` value (imported
            lazily to avoid an import cycle).
        lm_smoothing: Required λ when ``mode`` is the language model; must match
            the smoothing the index columns were precomputed with.

    Raises:
        IndexError_: If a language-model pipeline is requested with a smoothing
            different from the index's precomputed columns.
    """

    def __init__(self, index: ColumnarScoringIndex, mode, lm_smoothing: Optional[float] = None) -> None:
        from repro.textindex.relevance import ScoringMode  # deferred: cycle guard

        self._index = index
        self._mode = mode
        self._bounds = None
        self._sample_frame: Optional[Tuple[np.ndarray, np.ndarray]] = None
        if mode is ScoringMode.LANGUAGE_MODEL:
            wanted = index.lm_smoothing if lm_smoothing is None else float(lm_smoothing)
            if wanted != index.lm_smoothing:
                raise IndexError_(
                    f"columnar index precomputed language-model columns with "
                    f"smoothing {index.lm_smoothing}, cannot serve {wanted}"
                )

    @property
    def index(self) -> ColumnarScoringIndex:
        """The underlying columnar index."""
        return self._index

    @property
    def mode(self):
        """The bound scoring mode."""
        return self._mode

    @property
    def bounds(self):
        """The :class:`repro.core.bounds.UpperBoundIndex` for this pipeline's mode.

        Built lazily from the index's persisted cell aggregates; the import is
        deferred because :mod:`repro.core.bounds` imports this module.
        """
        if self._bounds is None:
            from repro.core.bounds import UpperBoundIndex  # deferred: cycle guard

            self._bounds = UpperBoundIndex.from_columnar(self._index, self._mode)
        return self._bounds

    def object_scores(self, keywords: Sequence[str]) -> np.ndarray:
        """Dense per-object weight column for the bound mode (no spatial masking)."""
        from repro.textindex.relevance import ScoringMode  # deferred: cycle guard

        index = self._index
        if self._mode is ScoringMode.TEXT_RELEVANCE:
            return index.tfidf_object_scores(keywords)
        if self._mode is ScoringMode.RATING_IF_MATCH:
            scores = np.zeros(index.num_objects, dtype=np.float64)
            matched = index.matched_objects(keywords)
            scores[matched] = index.obj_rating[matched]
            return scores
        return index.lm_object_scores(keywords)

    def node_sums(
        self,
        keywords: Iterable[str],
        window: Optional[Rectangle] = None,
        exclude_rows: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Per-node-position σ sums as a dense float64 array of length ``num_nodes``.

        The aggregation primitive behind :meth:`node_weights`, exposed so the
        delta-overlay merge (:mod:`repro.service.generations`) can combine base
        sums with overlay contributions before the positivity/ordering step.

        Args:
            keywords: Normalised, de-duplicated query keywords.
            window: Optional ``Q.Λ`` masking the *objects* by coordinates.
            exclude_rows: Optional boolean mask over object rows; ``True`` rows
                are dropped from the aggregation (used to mask base rows
                superseded by a pending overlay entry).
        """
        from repro.textindex.relevance import ScoringMode  # deferred: cycle guard

        index = self._index
        keyword_list = list(keywords)
        # Select the contributing object rows. TF-IDF and LM scores are
        # strictly positive exactly for the objects the reference loop scores
        # positively; rating mode must keep matched zero-rating objects out of
        # the selection test (they contribute 0.0 on both backends).
        scores = self.object_scores(keyword_list)
        if self._mode is ScoringMode.RATING_IF_MATCH:
            selection = index.matched_objects(keyword_list)
        else:
            selection = scores > 0.0
        selection &= index.obj_node_pos >= 0
        if exclude_rows is not None:
            selection &= ~exclude_rows
        if window is not None:
            selection &= window.contains_points(index.obj_x, index.obj_y)
        rows = np.flatnonzero(selection)
        if rows.size == 0:
            return np.zeros(index.num_nodes, dtype=np.float64)
        # Aggregate in ascending row (= corpus) order: within one node this is
        # exactly the order the reference loop adds object scores, so the sums
        # are bit-identical. np.bincount applies the adds sequentially.
        return np.bincount(
            index.obj_node_pos[rows],
            weights=scores[rows],
            minlength=index.num_nodes,
        )

    def node_weights(
        self,
        keywords: Iterable[str],
        window: Optional[Rectangle] = None,
        node_window: Optional[Rectangle] = None,
        exclude_rows: Optional[np.ndarray] = None,
    ) -> Dict[int, float]:
        """Return σ_v for every node carrying a relevant object — as pure array ops.

        Args:
            keywords: Normalised, de-duplicated query keywords
            	(:class:`~repro.core.query.LCMSRQuery` normalises at construction).
            window: Optional ``Q.Λ``. Masks the *objects* by a vectorised
                coordinate comparison — exactly the reference scorer's ``window``
                contract (an in-window object mapped to an out-of-window node
                still contributes to that node).
            node_window: Optional rectangle restricting the *nodes* by a
                vectorised coordinate comparison. The instance builder passes the
                query window here instead of materialising the window graph's
                node-id set: a mapped node lies in the window graph exactly when
                its coordinates lie in ``Q.Λ``.
            exclude_rows: Optional boolean mask over object rows to drop from
                the aggregation (see :meth:`node_sums`).

        Returns:
            ``node_id → σ_v`` for nodes with positive weight, in the same order
            the reference scorer produces.
        """
        index = self._index
        sums = self.node_sums(keywords, window=window, exclude_rows=exclude_rows)
        pos = kept_positions(sums, index.node_x, index.node_y, node_window)
        return dict(zip(index.node_ids[pos].tolist(), sums[pos].tolist()))

    # ------------------------------------------------------------------ sampling
    def _sampling_frame(self) -> Tuple[np.ndarray, np.ndarray]:
        """Mapped object rows grouped by bound-grid cell, as a CSR over cells.

        Returns ``(cell_indptr, frame_rows)`` where ``frame_rows[indptr[c]:
        indptr[c+1]]`` are the mapped object rows in cell ``c``, ascending. The
        grouping is a stable argsort of the persisted ``obj_cell`` column, so it
        is identical however the index was obtained (built fresh, loaded from an
        artifact, or subset to a shard) — a prerequisite for the sampler's
        bit-reproducibility guarantee. Built lazily, cached per pipeline.
        """
        if self._sample_frame is None:
            index = self._index
            mapped = np.flatnonzero(index.obj_node_pos >= 0).astype(np.int64)
            cells = index.obj_cell[mapped]
            order = np.argsort(cells, kind="stable")
            frame_rows = mapped[order]
            resolution = int(np.asarray(index.bound_meta)[0])
            counts = np.bincount(cells, minlength=resolution * resolution)
            indptr = np.concatenate(
                [np.zeros(1, dtype=np.int64), np.cumsum(counts, dtype=np.int64)]
            )
            self._sample_frame = (indptr, frame_rows)
        return self._sample_frame

    def _scores_for_rows(self, keywords: Sequence[str], rows: np.ndarray) -> np.ndarray:
        """Per-object scores for the given object rows only (float64).

        Computes the same score definition as :meth:`object_scores` but touches
        only ``len(rows)`` entries per query term, via binary search into the
        ascending CSR postings rows — the sublinear kernel the sampled tier's
        speedup comes from. Row order of the output follows ``rows``.
        """
        from repro.textindex.relevance import ScoringMode  # deferred: cycle guard

        index = self._index
        num_rows = len(rows)
        indptr = index.post_indptr

        def member_positions(tid: int) -> Tuple[np.ndarray, np.ndarray]:
            """(mask of rows containing term, posting positions for those rows)."""
            start, end = int(indptr[tid]), int(indptr[tid + 1])
            term_rows = index.post_rows[start:end]
            if len(term_rows) == 0:
                return np.zeros(num_rows, dtype=bool), np.empty(0, dtype=np.int64)
            pos = np.searchsorted(term_rows, rows)
            found = pos < len(term_rows)
            probe = np.where(found, pos, 0)
            found &= term_rows[probe] == rows
            return found, start + pos[found]

        if self._mode is ScoringMode.TEXT_RELEVANCE:
            weighted, norm = index.query_weights(keywords)
            scores = np.zeros(num_rows, dtype=np.float64)
            for tid, query_weight in weighted:
                found, slots = member_positions(tid)
                scores[found] += query_weight * index.post_tfidf[slots]
            np.divide(scores, norm, out=scores)
            return scores

        if self._mode is ScoringMode.RATING_IF_MATCH:
            matched = np.zeros(num_rows, dtype=bool)
            for term in keywords:
                tid = index.term_id(term)
                if tid is None:
                    continue
                found, _ = member_positions(tid)
                matched |= found
            scores = np.zeros(num_rows, dtype=np.float64)
            scores[matched] = index.obj_rating[rows[matched]]
            return scores

        scores = np.zeros(num_rows, dtype=np.float64)
        valid_tids = [
            tid
            for term in keywords
            if (tid := index.term_id(term)) is not None
            and index.lm_log_base[tid] != 0.0
        ]
        if not valid_tids:
            return scores
        background = 0.0
        for tid in valid_tids:
            log_base = float(index.lm_log_base[tid])
            column = np.full(num_rows, log_base, dtype=np.float64)
            found, slots = member_positions(tid)
            column[found] = index.lm_log_mixed[slots]
            scores += column
            background += log_base
        scores -= background
        np.maximum(scores, 0.0, out=scores)
        return scores

    def node_sums_sampled(
        self,
        keywords: Iterable[str],
        epsilon: Optional[float] = None,
        rate: Optional[float] = None,
        rng=None,
        window: Optional[Rectangle] = None,
    ) -> "SampledNodeSums":
        """Estimate the per-node σ sums from a seeded stratified sample.

        A Horvitz–Thompson estimator over the mapped-object rows, stratified by
        the PR 6 bound-grid cells: each cell ``h`` overlapping the query window
        contributes ``m_h`` rows drawn without replacement from its ``n_h``
        members by a within-stratum systematic design (a random start, then
        every ``n_h/m_h``-th member — equal inclusion probability ``m_h/n_h``),
        and every sampled score is inflated by the inverse inclusion
        probability ``n_h / m_h``. The per-cell sample sizes follow the
        ``cell_sigma_mass`` aggregates (cells that can hold more score mass get
        more of the budget), with a floor of :data:`SAMPLE_MIN_PER_STRATUM` rows
        per non-empty stratum. **Exactness escape hatch:** a stratum whose
        allocation reaches its population is enumerated in full — inclusion
        probability 1, zero variance — so small strata never pay sampling error.

        Per-node uncertainty is the classic stratified CLT variance with
        finite-population correction,
        ``Var̂(σ̂_v) = Σ_h n_h (n_h − m_h) / m_h · s²_{h,v}``,
        where ``s²_{h,v}`` is the within-stratum sample variance of the node's
        per-row contributions (zeros included) — the standard SRS proxy for a
        systematic draw, conservative when the within-cell row order is
        uncorrelated with scores. :meth:`SampledNodeSums.ci_halfwidth`
        turns it into a 95% half-width via :data:`CI_Z`.

        Determinism: with the same ``(keywords, window, epsilon|rate, seed)``
        the estimate is bit-identical across index save/load and across solver
        backends — strata are visited in ascending cell id and the generator is
        consumed identically (see :meth:`_sampling_frame`).

        Args:
            keywords: Normalised, de-duplicated query keywords.
            epsilon: Target relative-error scale; the total sample budget is
                ``ceil(4 / ε²)`` rows (CLT sizing), capped at the frame size.
                Exactly one of ``epsilon`` / ``rate`` must be given.
            rate: Direct sampling fraction in ``(0, 1]`` of the frame.
            rng: ``numpy.random.Generator`` or an int seed (default seed 0).
            window: Optional ``Q.Λ``; restricts the strata to the covering cell
                span and masks sampled objects by coordinates, mirroring
                :meth:`node_sums`'s window contract.
        """
        if (epsilon is None) == (rate is None):
            raise IndexError_("exactly one of epsilon or rate must be given")
        if epsilon is not None and not 0.0 < epsilon < 1.0:
            raise IndexError_(f"epsilon must be in (0, 1), got {epsilon}")
        if rate is not None and not 0.0 < rate <= 1.0:
            raise IndexError_(f"rate must be in (0, 1], got {rate}")
        if rng is None:
            rng = np.random.Generator(np.random.PCG64(0))
        elif isinstance(rng, (int, np.integer)):
            rng = np.random.Generator(np.random.PCG64(int(rng)))

        index = self._index
        keyword_list = list(keywords)
        num_nodes = index.num_nodes
        sums = np.zeros(num_nodes, dtype=np.float64)
        variance = np.zeros(num_nodes, dtype=np.float64)
        indptr, frame_rows = self._sampling_frame()
        num_cells = len(indptr) - 1
        cell_sizes = np.diff(indptr)

        # Strata: non-empty cells, restricted to the window's covering cell span.
        bounds = self.bounds
        if window is not None:
            r0, r1, c0, c1 = bounds._cell_span(
                window.min_x, window.min_y, window.max_x, window.max_y
            )
            rows_grid = np.arange(r0, r1 + 1, dtype=np.int64)
            cols_grid = np.arange(c0, c1 + 1, dtype=np.int64)
            span = (rows_grid[:, None] * bounds.resolution + cols_grid[None, :]).ravel()
        else:
            span = np.arange(num_cells, dtype=np.int64)
        active = span[cell_sizes[span] > 0]
        frame_size = int(cell_sizes[active].sum())
        if frame_size == 0:
            return SampledNodeSums(sums, variance, frame_size=0, sample_size=0)

        # Budget and proportional-to-mass allocation with a per-stratum floor.
        if rate is not None:
            target = int(math.ceil(rate * frame_size))
        else:
            target = int(math.ceil(4.0 / (epsilon * epsilon)))
        target = max(1, min(target, frame_size))
        mass = bounds.sigma_mass.ravel()[active]
        total_mass = float(mass.sum())
        n_active = cell_sizes[active].astype(np.int64)
        if total_mass > 0.0:
            share = mass / total_mass
        else:
            share = n_active / float(frame_size)
        floor = np.minimum(SAMPLE_MIN_PER_STRATUM, n_active)
        m_active = np.minimum(
            n_active,
            np.maximum(floor, np.ceil(target * share).astype(np.int64)),
        )

        # Within-stratum systematic draw, vectorised across strata: one uniform
        # offset u_h per stratum, then every (n_h/m_h)-th member — positions
        # floor((u_h + j) · n_h/m_h), j = 0..m_h−1, are strictly increasing and
        # < n_h, so the draw is without replacement with equal inclusion
        # probability m_h/n_h (the HT factors below are unchanged). A stratum
        # with m_h = n_h degenerates to positions 0..n_h−1 (u_h < 1 floors
        # away), which is the full-enumeration escape hatch. Strata are laid
        # out in ascending cell id and consume one generator call, so the
        # sample is bit-reproducible for a given (seed, window) across
        # artifact save/load and solver backends — and, unlike a per-stratum
        # ``rng.choice`` loop, the whole draw is O(sample) numpy work.
        offsets = rng.random(len(active))
        segment_start = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(m_active, dtype=np.int64)]
        )
        sample_size = int(segment_start[-1])
        stratum_of = np.repeat(np.arange(len(active), dtype=np.int64), m_active)
        j = np.arange(sample_size, dtype=np.int64) - segment_start[stratum_of]
        step = n_active.astype(np.float64) / m_active.astype(np.float64)
        picks = np.floor((offsets[stratum_of] + j) * step[stratum_of]).astype(np.int64)
        np.minimum(picks, (n_active - 1)[stratum_of], out=picks)
        rows = frame_rows[indptr[active][stratum_of] + picks]
        factors = step[stratum_of]
        # Score in ascending row order: the estimator is order-invariant, and
        # monotone probes into the postings CSR are markedly cache-friendlier.
        order = np.argsort(rows, kind="stable")
        rows = rows[order]
        factors = factors[order]
        n_of_cell = np.zeros(num_cells, dtype=np.int64)
        m_of_cell = np.zeros(num_cells, dtype=np.int64)
        n_of_cell[active] = n_active
        m_of_cell[active] = m_active

        # Score only the sampled rows; zero out rows the exact path would not
        # select (outside the window / non-positive score). The filter is
        # deterministic, so inclusion probabilities — and HT unbiasedness over
        # the selected sub-population — are unchanged.
        contributions = self._scores_for_rows(keyword_list, rows)
        if window is not None:
            in_window = window.contains_points(index.obj_x[rows], index.obj_y[rows])
            contributions = np.where(in_window, contributions, 0.0)
        np.maximum(contributions, 0.0, out=contributions)

        hit = contributions > 0.0
        hit_rows = rows[hit]
        hit_scores = contributions[hit]
        node_pos = index.obj_node_pos[hit_rows].astype(np.int64)
        np.add.at(sums, node_pos, hit_scores * factors[hit])

        # Stratified variance per node: group the nonzero contributions by
        # (cell, node); zero contributions only enter through m_h in the
        # moment formulas, so they need not be materialised.
        if len(hit_rows):
            hit_cells = index.obj_cell[hit_rows].astype(np.int64)
            keys = hit_cells * np.int64(num_nodes) + node_pos
            uniq, inverse = np.unique(keys, return_inverse=True)
            sum_y = np.bincount(inverse, weights=hit_scores, minlength=len(uniq))
            sum_y2 = np.bincount(
                inverse, weights=hit_scores * hit_scores, minlength=len(uniq)
            )
            group_cell = (uniq // num_nodes).astype(np.int64)
            group_node = (uniq % num_nodes).astype(np.int64)
            m_h = m_of_cell[group_cell].astype(np.float64)
            n_h = n_of_cell[group_cell].astype(np.float64)
            with np.errstate(invalid="ignore", divide="ignore"):
                s2 = np.where(
                    m_h > 1.0,
                    np.maximum(sum_y2 - sum_y * sum_y / m_h, 0.0) / (m_h - 1.0),
                    0.0,
                )
            fpc = n_h * (n_h - m_h) / np.maximum(m_h, 1.0)
            np.add.at(variance, group_node, fpc * s2)

        return SampledNodeSums(
            sums, variance, frame_size=frame_size, sample_size=sample_size
        )

    def node_weights_sampled(
        self,
        keywords: Iterable[str],
        epsilon: Optional[float] = None,
        rate: Optional[float] = None,
        rng=None,
        window: Optional[Rectangle] = None,
        node_window: Optional[Rectangle] = None,
    ) -> "SampledWeights":
        """Sampled counterpart of :meth:`node_weights`: σ̂_v dicts plus variances.

        Runs :meth:`node_sums_sampled` and applies the same positivity /
        node-window filtering as the exact path, returning the estimated weight
        dict (position order, like the exact dict) together with the per-node
        variance estimates for the kept nodes.
        """
        index = self._index
        sampled = self.node_sums_sampled(
            keywords, epsilon=epsilon, rate=rate, rng=rng, window=window
        )
        pos = kept_positions(sampled.sums, index.node_x, index.node_y, node_window)
        ids = index.node_ids[pos].tolist()
        return SampledWeights(
            weights=dict(zip(ids, sampled.sums[pos].tolist())),
            variance=dict(zip(ids, sampled.variance[pos].tolist())),
            frame_size=sampled.frame_size,
            sample_size=sampled.sample_size,
        )


class SampledNodeSums:
    """Dense result of :meth:`WeightPipeline.node_sums_sampled`.

    Attributes:
        sums: Horvitz–Thompson estimates σ̂ per node-table position (float64).
        variance: Stratified CLT+FPC variance estimates, same shape.
        frame_size: Mapped rows in the active strata (the sampled population).
        sample_size: Rows actually drawn and scored.
    """

    __slots__ = ("sums", "variance", "frame_size", "sample_size")

    def __init__(
        self, sums: np.ndarray, variance: np.ndarray, frame_size: int, sample_size: int
    ) -> None:
        self.sums = sums
        self.variance = variance
        self.frame_size = int(frame_size)
        self.sample_size = int(sample_size)

    @property
    def exact(self) -> bool:
        """True when every active stratum was enumerated (zero sampling error)."""
        return self.sample_size == self.frame_size

    def ci_halfwidth(self) -> np.ndarray:
        """95% CI half-width per node position (:data:`CI_Z` · √variance)."""
        return CI_Z * np.sqrt(self.variance)


class SampledWeights:
    """Dict-shaped result of :meth:`WeightPipeline.node_weights_sampled`.

    ``weights`` / ``variance`` are keyed by node id for the kept (positive,
    node-window-filtered) nodes; ``region_variance(nodes)`` sums member
    variances — per-node estimates are treated as independent (stratum
    covariance between nodes is ignored; documented in docs/ARCHITECTURE.md).
    """

    __slots__ = ("weights", "variance", "frame_size", "sample_size")

    def __init__(
        self,
        weights: Dict[int, float],
        variance: Dict[int, float],
        frame_size: int,
        sample_size: int,
    ) -> None:
        self.weights = weights
        self.variance = variance
        self.frame_size = int(frame_size)
        self.sample_size = int(sample_size)

    @property
    def exact(self) -> bool:
        """True when the whole active frame was enumerated."""
        return self.sample_size == self.frame_size

    def region_ci(self, nodes: Iterable[int]) -> float:
        """95% CI half-width on the summed weight of a node set."""
        total_var = sum(self.variance.get(int(node), 0.0) for node in nodes)
        return CI_Z * math.sqrt(total_var) if total_var > 0.0 else 0.0
