"""The geo-textual object (PoI) model."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Tuple

from repro.exceptions import DatasetError


@dataclass(frozen=True)
class GeoTextualObject:
    """A point of interest with a web presence.

    Attributes:
        object_id: Stable integer identifier, unique within a corpus.
        x: Planar x coordinate in meters (finite).
        y: Planar y coordinate in meters (finite).
        keywords: Term-frequency mapping of the object's textual description. A plain
            iterable of terms may be passed to :meth:`create`, which counts
            occurrences — the paper's TF component (``1 + ln tf``) needs frequencies,
            not just term presence.
        rating: Optional rating/popularity attribute. The paper notes the region score
            can alternatively use rating or check-in counts; solvers accept a scoring
            mode that uses this field. Finite and non-negative.

    Raises:
        DatasetError: On a non-finite coordinate or rating (no node is nearest
            to a NaN), a negative rating, or a non-positive term frequency.
    """

    object_id: int
    x: float
    y: float
    keywords: Mapping[str, int]
    rating: float = 1.0

    @staticmethod
    def create(
        object_id: int,
        x: float,
        y: float,
        terms: Iterable[str],
        rating: float = 1.0,
    ) -> "GeoTextualObject":
        """Build an object from an iterable of (possibly repeated) terms.

        Terms are lower-cased; empty descriptions are allowed (such objects simply
        never match any query).
        """
        counts: Dict[str, int] = {}
        for term in terms:
            term = term.strip().lower()
            if not term:
                continue
            counts[term] = counts.get(term, 0) + 1
        return GeoTextualObject(object_id, float(x), float(y), counts, rating)

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.x, self.y, self.rating))):
            raise DatasetError(
                f"object {self.object_id} has a non-finite coordinate or rating "
                f"({self.x}, {self.y}, rating {self.rating})"
            )
        if self.rating < 0:
            raise DatasetError(f"object {self.object_id} has negative rating {self.rating}")
        for term, frequency in self.keywords.items():
            if frequency <= 0:
                raise DatasetError(
                    f"object {self.object_id} has non-positive frequency for term {term!r}"
                )

    @property
    def terms(self) -> Tuple[str, ...]:
        """Return the distinct terms of the description (order unspecified)."""
        return tuple(self.keywords.keys())

    def term_frequency(self, term: str) -> int:
        """Return the frequency of ``term`` in the description (0 if absent)."""
        return self.keywords.get(term, 0)

    def contains_any(self, terms: Iterable[str]) -> bool:
        """Return ``True`` if the description contains at least one of ``terms``."""
        return any(term in self.keywords for term in terms)

    def location(self) -> Tuple[float, float]:
        """Return the object's ``(x, y)`` location."""
        return (self.x, self.y)
