"""The LCMSR query type (paper Definition 3)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Tuple

from repro.exceptions import QueryError
from repro.network.subgraph import Rectangle
from repro.textindex.tokenizer import normalize_keyword_set


@dataclass(frozen=True)
class LCMSRQuery:
    """A length-constrained maximum-sum region query ``Q = <ψ, ∆, Λ>``.

    Attributes:
        keywords: The query keyword set ``Q.ψ``. Normalised at construction —
            stripped, lower-cased, de-duplicated and sorted — whichever
            constructor path is used, so scorers, cache keys and the columnar
            weight pipeline never re-normalise per call, and every order of
            one keyword list gives bit-identical weights. A bare string is
            refused rather than read as its letters, and so is a list holding
            anything but strings.
        delta: The length constraint ``Q.∆``: the maximum total road-segment length of
            the returned region, in the same units as edge lengths (meters for the
            bundled datasets). Finite and non-negative.
        region: The rectangular region of interest ``Q.Λ``. ``None`` means "the whole
            network", which several unit-level tests and the paper's Figure 2 example
            use.
        k: Number of regions to return for the top-k variant (Section 6.2); plain
            LCMSR queries use ``k = 1``.
    """

    keywords: Tuple[str, ...]
    delta: float
    region: Optional[Rectangle] = None
    k: int = 1

    def __post_init__(self) -> None:
        # A string is an iterable of letters: "cafe" would query a, c, e, f.
        if isinstance(self.keywords, str):
            raise QueryError(
                f"query keywords must be a list of words, not the string {self.keywords!r}"
            )
        keywords = tuple(self.keywords)
        for keyword in keywords:
            if not isinstance(keyword, str):
                raise QueryError(f"query keywords must be words, got {keyword!r}")
        # Normalise ONCE, at construction: every downstream consumer (scorers,
        # the columnar weight pipeline, cache keys) trusts query keywords to be
        # stripped, lower-cased, de-duplicated and sorted already.
        normalised = normalize_keyword_set(keywords)
        if normalised != self.keywords:
            object.__setattr__(self, "keywords", normalised)
        if not self.keywords:
            raise QueryError("an LCMSR query needs at least one keyword")
        if not (0 <= self.delta < math.inf):
            raise QueryError(
                f"the length constraint must be non-negative and finite, got {self.delta}"
            )
        if self.k < 1:
            raise QueryError(f"k must be at least 1, got {self.k}")

    @staticmethod
    def create(
        keywords: Iterable[str],
        delta: float,
        region: Optional[Rectangle] = None,
        k: int = 1,
    ) -> "LCMSRQuery":
        """Build a query from any keyword list (``__post_init__`` normalises)."""
        return LCMSRQuery(keywords=keywords, delta=float(delta), region=region, k=k)

    def with_region(self, region: Optional[Rectangle]) -> "LCMSRQuery":
        """Return a copy with a different region of interest (used in sweeps)."""
        return LCMSRQuery(self.keywords, self.delta, region, self.k)

    def with_k(self, k: int) -> "LCMSRQuery":
        """Return a copy asking for the top ``k`` regions."""
        return LCMSRQuery(self.keywords, self.delta, self.region, k)
