"""Normalized cache keys for the serving layer.

Two queries that differ only in presentation — keyword order, duplicate keywords,
surrounding whitespace, letter case, or an equal-but-distinct ``Rectangle`` object —
must hit the same cache entries. This module owns that normalization so the result
cache and the instance cache agree on what "the same query" means:

* :class:`ResultKey` identifies a full query execution — everything that can change
  the answer: keywords, ``∆``, the window, ``k``, the resolved algorithm name and the
  engine's scoring mode.
* :class:`InstanceKey` identifies a built :class:`~repro.core.instance.ProblemInstance`
  — only the inputs the index probe depends on (keywords, window, scoring mode).
  ``∆``, ``k`` and the algorithm deliberately do not appear: the windowed graph and
  the node weights are identical across them, which is exactly why the instance cache
  can serve a ``∆``-sweep from one build.

Keys hold the canonical keyword tuple of :func:`normalize_keywords` (sorted: queries
are sets in the paper, Definition 3), the order the executed
:class:`~repro.core.query.LCMSRQuery` scores them in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

from repro.network.subgraph import Rectangle
from repro.textindex.relevance import ScoringMode
from repro.textindex.tokenizer import normalize_keyword_set as normalize_keywords

RegionTupleKey = Tuple[float, float, float, float]


def region_key(region: Optional[Rectangle]) -> Optional[RegionTupleKey]:
    """Collapse a query window to a hashable value (``None`` for "whole network")."""
    if region is None:
        return None
    return (region.min_x, region.min_y, region.max_x, region.max_y)


@dataclass(frozen=True)
class InstanceKey:
    """Cache key for a built problem instance (window graph + node weights).

    The serving path derives it from a query's result key
    (:attr:`ResultKey.instance_key`).

    Attributes:
        keywords: Canonical keyword tuple (sorted, deduplicated, lower-cased).
        region: The window as a coordinate tuple, or ``None`` for the whole network.
        scoring_mode: The scoring mode the weights were computed under.
        bundle_key: The engine's
            :attr:`~repro.engine.LCMSREngine.bundle_cache_key` — dataset
            fingerprint + bundle generation + overlay version — so instances
            built over different artifacts, across a generation swap, or under
            different pending mutations never collide. Defaults to ``""`` for
            direct constructions outside the serving path.
        policy: The *instance-affecting* policy token. ``"exact"`` (the
            default, so pre-existing keys keep their identity) covers both the
            exact and the anytime policies — an anytime query solves the same
            built instance, the deadline budget is attached at solve time —
            while ``sampled`` policies carry their full
            :meth:`~repro.core.anytime.QueryPolicy.cache_token` because their
            node weights are estimates and must never be served to (or from)
            an exact build.
    """

    keywords: Tuple[str, ...]
    region: Optional[RegionTupleKey]
    scoring_mode: str
    bundle_key: str = ""
    policy: str = "exact"


@dataclass(frozen=True)
class ResultKey:
    """Cache key for a complete query execution.

    Attributes:
        keywords: Canonical keyword tuple.
        delta: The length constraint ``Q.∆``.
        region: The window as a coordinate tuple, or ``None``.
        k: Number of requested regions (1 for plain LCMSR).
        algorithm: The resolved (lower-case) solver name — the engine default is
            resolved *before* the key is built, so "default" and its explicit name
            share an entry.
        scoring_mode: The engine's scoring mode.
        bundle_key: The engine's
            :attr:`~repro.engine.LCMSREngine.bundle_cache_key` at execution
            time — dataset fingerprint + bundle generation + overlay version —
            so two services over different artifacts in one process can never
            cross-pollinate, and a generation swap (or a new pending mutation)
            retires every earlier result. Defaults to ``""`` for direct
            constructions outside the serving path.
        policy: The query's :meth:`~repro.core.anytime.QueryPolicy.cache_token`.
            ``"exact"`` is the default — the token exact policies render — so
            pre-existing exact entries keep their identity, while every
            approximate policy (``anytime:…`` / ``sampled:…``) gets a disjoint
            key: an exact lookup can never be answered from an approximate
            entry, and vice versa.
    """

    keywords: Tuple[str, ...]
    delta: float
    region: Optional[RegionTupleKey]
    k: int
    algorithm: str
    scoring_mode: str
    bundle_key: str = ""
    policy: str = "exact"

    @staticmethod
    def create(
        keywords: Iterable[str],
        delta: float,
        region: Optional[Rectangle],
        k: int,
        algorithm: str,
        scoring_mode: ScoringMode,
        bundle_key: str = "",
        policy: str = "exact",
    ) -> "ResultKey":
        """Build the canonical result key for one query execution."""
        return ResultKey(
            keywords=normalize_keywords(keywords),
            delta=float(delta),
            region=region_key(region),
            k=int(k),
            algorithm=algorithm.lower(),
            scoring_mode=scoring_mode.value,
            bundle_key=bundle_key,
            policy=policy,
        )

    @property
    def instance_key(self) -> InstanceKey:
        """The instance-cache key this result's execution probes.

        Anytime result keys map to the *exact* instance key: a budgeted query
        solves the same built instance (the deadline is attached at solve
        time), so exact and anytime queries legitimately share one build.
        Sampled keys keep their token — estimated weights get their own entry.
        """
        return InstanceKey(
            keywords=self.keywords,
            region=self.region,
            scoring_mode=self.scoring_mode,
            bundle_key=self.bundle_key,
            policy=self.policy if self.policy.startswith("sampled") else "exact",
        )
