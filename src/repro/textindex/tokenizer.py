"""A small, dependency-free tokenizer for object descriptions and queries.

The paper's datasets use short descriptions (place names and category labels, Flickr
tags). Tokenisation therefore only needs to lower-case, split on non-alphanumeric
characters, and drop a handful of ubiquitous stop words and noise tokens; stemming is
deliberately omitted because the paper does not stem either (keywords such as
"restaurant" are matched verbatim).
"""

from __future__ import annotations

import re
from typing import Iterable, List, Sequence, Set, Tuple

_TOKEN_PATTERN = re.compile(r"[a-z0-9]+")


def normalize_keyword_set(keywords: Iterable[str]) -> Tuple[str, ...]:
    """Strip, lower-case, de-duplicate and sort keywords.

    The ONE canonical keyword normalisation: :class:`~repro.core.query.LCMSRQuery`
    applies it at construction, the cache keys use it, and the query-vector /
    batch-scoring entry points that accept raw keywords share it, so the scoring
    backends and the cache keys can never diverge on what "the same keywords" means.
    Sorting makes every order of one keyword set sum σ_v in one order, so two
    permutations score bit-identically (queries are sets, paper Definition 3).
    """
    return tuple(sorted({k.strip().lower() for k in keywords if k.strip()}))

DEFAULT_STOP_WORDS: Set[str] = {
    "a",
    "an",
    "and",
    "at",
    "by",
    "for",
    "in",
    "of",
    "on",
    "or",
    "the",
    "to",
    "with",
}
"""Stop words removed by default; short and deliberately conservative."""


def tokenize(
    text: str,
    stop_words: Set[str] | None = None,
    min_length: int = 1,
) -> List[str]:
    """Split ``text`` into lower-cased alphanumeric tokens.

    Args:
        text: The raw description or query string.
        stop_words: Tokens to drop; defaults to :data:`DEFAULT_STOP_WORDS`. Pass an
            empty set to keep everything.
        min_length: Minimum token length to keep (useful for dropping single letters
            in noisy tag data).

    Returns:
        The list of kept tokens, in order of appearance (duplicates preserved so term
        frequencies can be counted downstream).
    """
    if stop_words is None:
        stop_words = DEFAULT_STOP_WORDS
    tokens = _TOKEN_PATTERN.findall(text.lower())
    return [token for token in tokens if len(token) >= min_length and token not in stop_words]
