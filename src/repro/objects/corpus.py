"""Collections of geo-textual objects.

An :class:`ObjectCorpus` owns the objects of one dataset and provides the collection
statistics the vector-space model needs (document frequency ``ft`` and the corpus size
``|D|``), plus simple spatial and keyword filtering used by the workload generators.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.exceptions import DatasetError
from repro.network.subgraph import Rectangle
from repro.objects.geoobject import GeoTextualObject


class ObjectCorpus:
    """A set of geo-textual objects with corpus-level term statistics.

    The corpus is append-only: objects can be added, after which document frequencies
    are kept incrementally. That is all the paper's indexing layer needs (the datasets
    are loaded once and then queried many times).
    """

    def __init__(self, objects: Optional[Iterable[GeoTextualObject]] = None) -> None:
        self._objects: Dict[int, GeoTextualObject] = {}
        self._document_frequency: Dict[str, int] = defaultdict(int)
        # Collection term counts (Σ tf per term) are consumed by every
        # language-model scorer construction and by the columnar index build;
        # they are computed lazily once and invalidated by add().
        self._collection_counts: Optional[Dict[str, int]] = None
        self._collection_total = 0
        if objects is not None:
            for obj in objects:
                self.add(obj)

    # ------------------------------------------------------------------ mutation
    def add(self, obj: GeoTextualObject) -> None:
        """Add an object; duplicate identifiers are rejected."""
        if obj.object_id in self._objects:
            raise DatasetError(f"duplicate object id {obj.object_id}")
        self._objects[obj.object_id] = obj
        for term in obj.keywords:
            self._document_frequency[term] += 1
        self._collection_counts = None  # invalidate the cached collection counts

    def add_all(self, objects: Iterable[GeoTextualObject]) -> None:
        """Add every object from ``objects``."""
        for obj in objects:
            self.add(obj)

    # ------------------------------------------------------------------ access
    def __len__(self) -> int:
        return len(self._objects)

    def __iter__(self) -> Iterator[GeoTextualObject]:
        return iter(self._objects.values())

    def __contains__(self, object_id: int) -> bool:
        return object_id in self._objects

    def get(self, object_id: int) -> GeoTextualObject:
        """Return the object with ``object_id``; raises :class:`DatasetError` if absent."""
        try:
            return self._objects[object_id]
        except KeyError:
            raise DatasetError(f"unknown object id {object_id}") from None

    def object_ids(self) -> Iterator[int]:
        """Iterate over all object identifiers."""
        return iter(self._objects.keys())

    @property
    def size(self) -> int:
        """Number of objects in the corpus (the paper's ``|D|``)."""
        return len(self._objects)

    # ------------------------------------------------------------------ statistics
    def document_frequency(self, term: str) -> int:
        """Return the number of objects whose description contains ``term`` (``ft``)."""
        return self._document_frequency.get(term, 0)

    def vocabulary(self) -> Set[str]:
        """Return the set of distinct terms appearing in the corpus."""
        return set(self._document_frequency.keys())

    def vocabulary_size(self) -> int:
        """Return the number of distinct terms in the corpus."""
        return len(self._document_frequency)

    def _ensure_collection_counts(self) -> Dict[str, int]:
        counts = self._collection_counts
        if counts is None:
            counts = {}
            total = 0
            for obj in self._objects.values():
                for term, freq in obj.keywords.items():
                    counts[term] = counts.get(term, 0) + freq
                    total += freq
            self._collection_counts = counts
            self._collection_total = total
        return counts

    def collection_term_counts(self) -> Dict[str, int]:
        """Return Σ tf per term over the whole corpus (the LM collection model).

        Computed once and cached; :meth:`add` invalidates the cache. Callers must
        treat the returned mapping as read-only (it IS the cache).
        """
        return self._ensure_collection_counts()

    def collection_total_terms(self) -> int:
        """Return the total number of term occurrences in the corpus (Σ_t Σ_o tf)."""
        self._ensure_collection_counts()
        return self._collection_total

    def most_frequent_terms(self, count: int) -> List[Tuple[str, int]]:
        """Return the ``count`` terms with the highest document frequency."""
        ordered = sorted(self._document_frequency.items(), key=lambda item: (-item[1], item[0]))
        return ordered[:count]

    # ------------------------------------------------------------------ filtering
    def objects_in_rectangle(self, window: Rectangle) -> List[GeoTextualObject]:
        """Return all objects located inside ``window`` (borders included)."""
        return [obj for obj in self._objects.values() if window.contains(obj.x, obj.y)]

    def terms_in_rectangle(self, window: Rectangle) -> Dict[str, int]:
        """Return document frequencies restricted to objects inside ``window``.

        Used by the query-workload generator, which samples keywords proportionally to
        their frequency inside the selected query area (paper Section 7.1).
        """
        frequencies: Dict[str, int] = defaultdict(int)
        for obj in self.objects_in_rectangle(window):
            for term in obj.keywords:
                frequencies[term] += 1
        return dict(frequencies)
