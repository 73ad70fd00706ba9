"""Vector-space text-relevance model (paper Equations 1 and 2).

The paper scores an object ``o`` against a query ``Q`` by

    σ(o.ψ, Q.ψ) = Σ_{t ∈ Q.ψ ∩ o.ψ}  w_{Q.ψ,t} · w_{o.ψ,t} / (W_{Q.ψ} · W_{o.ψ})

with ``w_{Q.ψ,t} = ln(1 + |D| / f_t)`` (IDF), ``w_{o.ψ,t} = 1 + ln(tf_{t,o.ψ})`` (TF)
and the usual L2 normalisers ``W``. At indexing time the per-object, per-term weight
``wto(t) = w_{o.ψ,t} / W_{o.ψ}`` is precomputed and stored in the postings lists, so
at query time the score is a single dot product against the query vector (Equation 2).
This module implements both the offline and online halves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Sequence

from repro.objects.corpus import ObjectCorpus
from repro.objects.geoobject import GeoTextualObject
from repro.textindex.tokenizer import normalize_keyword_set


def idf_weight(corpus_size: int, document_frequency: int) -> float:
    """Return the paper's IDF weight ``ln(1 + |D| / f_t)``.

    Terms that never occur in the corpus get ``f_t = 0``; the paper's formula is then
    undefined, and we return 0.0 because such a term cannot contribute to any object's
    score anyway (no object contains it).
    """
    if document_frequency <= 0:
        return 0.0
    return math.log(1.0 + corpus_size / document_frequency)


def tf_weight(term_frequency: int) -> float:
    """Return the paper's TF weight ``1 + ln(tf)`` (0.0 when the term is absent)."""
    if term_frequency <= 0:
        return 0.0
    return 1.0 + math.log(term_frequency)


@dataclass(frozen=True)
class QueryVector:
    """A query's keyword set with its IDF weights and L2 normaliser.

    Attributes:
        terms: Distinct query keywords (lower-cased).
        weights: Per-term IDF weight ``w_{Q.ψ,t}``.
        norm: The L2 normaliser ``W_{Q.ψ}`` (1.0 when all weights are zero so division
            is always safe).
    """

    terms: tuple
    weights: Mapping[str, float]
    norm: float

    @property
    def keyword_count(self) -> int:
        """Number of distinct query keywords."""
        return len(self.terms)


class VectorSpaceModel:
    """TF-IDF scoring over an :class:`ObjectCorpus` (paper Section 3).

    The model precomputes, for every object, the normalised term weights ``wto(t)``
    used for direct scoring. The corpus is treated as immutable after the model is
    built, matching the paper's offline indexing / online querying split. Queries
    score through the columnar index
    (:class:`~repro.textindex.columnar.ColumnarScoringIndex`), which replays this
    model's arithmetic bit for bit; the model is the scalar reference it is tested
    against.
    """

    def __init__(self, corpus: ObjectCorpus) -> None:
        self._corpus = corpus
        self._corpus_size = corpus.size
        # Normalised term weights: TF weights over the object's L2 norm W_{o.ψ}.
        self._object_term_weights: Dict[int, Dict[str, float]] = {}
        for obj in corpus:
            weights = {term: tf_weight(freq) for term, freq in obj.keywords.items()}
            norm = math.sqrt(sum(w * w for w in weights.values()))
            denominator = norm if norm > 0 else 1.0
            self._object_term_weights[obj.object_id] = {
                term: weight / denominator for term, weight in weights.items()
            }

    @property
    def corpus(self) -> ObjectCorpus:
        """The corpus this model was built over."""
        return self._corpus

    @property
    def corpus_size(self) -> int:
        """Number of objects in the corpus (``|D|``)."""
        return self._corpus_size

    # ------------------------------------------------------------------ offline
    def object_term_weight(self, object_id: int, term: str) -> float:
        """Return the stored normalised weight ``wto(t)`` (0.0 if term absent)."""
        weights = self._object_term_weights.get(object_id)
        return weights.get(term, 0.0) if weights else 0.0

    # ------------------------------------------------------------------ online
    def query_vector(self, keywords: Iterable[str]) -> QueryVector:
        """Build the query-side vector (IDF weights and normaliser) for ``keywords``."""
        distinct = normalize_keyword_set(keywords)
        weights = {
            term: idf_weight(self._corpus_size, self._corpus.document_frequency(term))
            for term in distinct
        }
        norm = math.sqrt(sum(w * w for w in weights.values()))
        return QueryVector(terms=distinct, weights=weights, norm=norm if norm > 0 else 1.0)

    def score(self, obj: GeoTextualObject | int, query: QueryVector) -> float:
        """Return σ(o.ψ, Q.ψ) for one object against a prepared query vector.

        Accepts either an object or an object id. Implements Equation 2: the dot
        product of the query IDF weights with the stored ``wto(t)`` weights, divided
        by the query normaliser.
        """
        object_id = obj.object_id if isinstance(obj, GeoTextualObject) else obj
        stored = self._object_term_weights.get(object_id)
        if not stored:
            return 0.0
        total = 0.0
        for term in query.terms:
            weight = stored.get(term)
            if weight:
                total += query.weights[term] * weight
        return total / query.norm

    def score_keywords(self, obj: GeoTextualObject | int, keywords: Iterable[str]) -> float:
        """Convenience wrapper: build the query vector and score in one call."""
        return self.score(obj, self.query_vector(keywords))

    def batch_scores(
        self, objects: Sequence[GeoTextualObject | int], keywords: Iterable[str]
    ) -> Dict[int, float]:
        """Score many objects against one keyword set; returns only non-zero scores."""
        query = self.query_vector(keywords)
        scores: Dict[int, float] = {}
        for obj in objects:
            object_id = obj.object_id if isinstance(obj, GeoTextualObject) else obj
            value = self.score(object_id, query)
            if value > 0.0:
                scores[object_id] = value
        return scores
