"""Keyword vocabularies with Zipfian frequency profiles.

The paper's NY objects carry Google Places names and category labels (55,230 distinct
keywords over 0.5 M objects) and the USANW objects carry Flickr tags (107,956 distinct
keywords, noisy). Term frequencies in both kinds of corpora are heavily skewed, which
matters to the experiments: the number of query keywords controls how many nodes are
relevant. The :class:`Vocabulary` class models a term universe with a Zipf rank-
frequency law plus a small head of named categories ("restaurant", "cafe", ...) so the
paper's example queries are expressible verbatim.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import DatasetError

PLACES_CATEGORY_TERMS: Tuple[str, ...] = (
    "restaurant", "cafe", "coffee", "bar", "pizza", "bakery", "sushi", "deli",
    "burger", "noodle", "italian", "mexican", "chinese", "thai", "indian",
    "pharmacy", "grocery", "supermarket", "bank", "atm", "hotel", "hostel",
    "museum", "gallery", "theater", "cinema", "park", "gym", "spa", "salon",
    "bookstore", "library", "school", "clinic", "hospital", "dentist",
    "clothing", "shoes", "jeans", "electronics", "hardware", "florist",
    "butcher", "seafood", "vegan", "dessert", "icecream", "wine", "pub", "club",
)
"""Head terms for the Google-Places-like vocabulary (the paper's example queries use
terms such as "restaurant", "cafe", "coffee", "shoes" and "jeans")."""

FLICKR_TAG_TERMS: Tuple[str, ...] = (
    "sunset", "beach", "mountain", "lake", "forest", "bridge", "skyline", "nature",
    "hiking", "camping", "waterfall", "river", "island", "lighthouse", "harbor",
    "festival", "concert", "streetart", "graffiti", "architecture", "downtown",
    "nightlife", "food", "coffee", "brunch", "market", "vintage", "rain", "snow",
    "autumn", "spring", "wildlife", "birds", "flowers", "garden", "trail", "ferry",
    "train", "airport", "stadium", "campus", "roadtrip", "landscape", "panorama",
)
"""Head terms for the Flickr-like tag vocabulary used by the USANW stand-in."""


@dataclass
class Vocabulary:
    """A term universe with a Zipfian frequency profile.

    Attributes:
        head_terms: Named high-frequency terms placed at the top Zipf ranks (so the
            paper's example keywords exist and are frequent).
        num_tail_terms: Number of synthetic tail terms (``term0001`` ...) appended
            after the head.
        zipf_exponent: Zipf rank exponent ``s`` (frequency ∝ 1/rank^s).
    """

    head_terms: Sequence[str]
    num_tail_terms: int = 2000
    zipf_exponent: float = 1.05
    _terms: List[str] = field(init=False, repr=False)
    _cumulative: List[float] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.num_tail_terms < 0:
            raise DatasetError("num_tail_terms must be non-negative")
        tail = [f"term{i:05d}" for i in range(self.num_tail_terms)]
        self._terms = list(dict.fromkeys(self.head_terms)) + tail
        if not self._terms:
            raise DatasetError("a vocabulary needs at least one term")
        weights = [1.0 / (rank ** self.zipf_exponent) for rank in range(1, len(self._terms) + 1)]
        total = sum(weights)
        cumulative = []
        running = 0.0
        for weight in weights:
            running += weight / total
            cumulative.append(running)
        self._cumulative = cumulative

    # ------------------------------------------------------------------ access
    @property
    def terms(self) -> List[str]:
        """All terms, most frequent first."""
        return list(self._terms)

    # ------------------------------------------------------------------ sampling
    def sample_term(self, rng: random.Random) -> str:
        """Draw one term according to the Zipf distribution."""
        u = rng.random()
        low, high = 0, len(self._cumulative) - 1
        while low < high:
            mid = (low + high) // 2
            if self._cumulative[mid] < u:
                low = mid + 1
            else:
                high = mid
        return self._terms[low]

    def sample_description(
        self, rng: random.Random, min_terms: int = 2, max_terms: int = 6
    ) -> List[str]:
        """Draw a short description: a few Zipf-sampled terms (repeats possible)."""
        if min_terms < 1 or max_terms < min_terms:
            raise DatasetError("invalid description length bounds")
        count = rng.randint(min_terms, max_terms)
        return [self.sample_term(rng) for _ in range(count)]


PLACES_VOCABULARY = Vocabulary(head_terms=PLACES_CATEGORY_TERMS, num_tail_terms=3000)
"""Default Google-Places-like vocabulary (NY stand-in)."""

FLICKR_VOCABULARY = Vocabulary(head_terms=FLICKR_TAG_TERMS, num_tail_terms=6000, zipf_exponent=0.95)
"""Default Flickr-tag-like vocabulary (USANW stand-in): longer, noisier tail."""
