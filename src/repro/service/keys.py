"""Cache keys for the serving layer.

Two queries that differ only in presentation — keyword order, duplicate keywords,
surrounding whitespace, letter case, or an equal-but-distinct ``Rectangle`` object —
must hit the same cache entries. The keys hold the request's
:class:`~repro.core.query.LCMSRQuery` as it is: it normalised its keywords at
construction (sorted: queries are sets in the paper, Definition 3), and its frozen
window hashes by value.

* :class:`ResultKey` identifies a full query execution — everything that can change
  the answer: the query (keywords, ``∆``, the window, ``k``), the resolved
  algorithm name, the world it was answered from and the policy.
* :class:`InstanceKey` identifies a built :class:`~repro.core.instance.ProblemInstance`
  — only the inputs the index probe depends on (keywords, window, world).
  ``∆``, ``k`` and the algorithm deliberately do not appear: the windowed graph and
  the node weights are identical across them, which is exactly why the instance cache
  can serve a ``∆``-sweep from one build.

Neither key names the scoring mode: within one service it changes only with a
bundle swap, and a swap bumps the generation in the ``bundle_key``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.query import LCMSRQuery
from repro.network.subgraph import Rectangle


@dataclass(frozen=True)
class InstanceKey:
    """Cache key for a built problem instance (window graph + node weights).

    The serving path derives it from a query's result key
    (:attr:`ResultKey.instance_key`).

    Attributes:
        keywords: The query's canonical keyword tuple.
        region: The query window, or ``None`` for the whole network.
        bundle_key: The engine's
            :attr:`~repro.engine.LCMSREngine.bundle_cache_key` — dataset
            fingerprint + bundle generation + overlay version — so instances
            built over different artifacts, across a generation swap, or under
            different pending mutations never collide.
        policy: The *instance-affecting* policy token. ``"exact"`` covers both
            the exact and the anytime policies — an anytime query solves the
            same built instance, the deadline budget is attached at solve time
            — while ``sampled`` policies carry their full
            :meth:`~repro.core.anytime.QueryPolicy.cache_token` because their
            node weights are estimates and must never be served to (or from)
            an exact build.
    """

    keywords: Tuple[str, ...]
    region: Optional[Rectangle]
    bundle_key: str
    policy: str


@dataclass(frozen=True)
class ResultKey:
    """Cache key for a complete query execution.

    Attributes:
        query: The executed query ``Q = <ψ, ∆, Λ>`` with its ``k``.
        algorithm: The resolved (lower-case) solver name — the engine default is
            resolved *before* the key is built, so "default" and its explicit name
            share an entry.
        bundle_key: The engine's
            :attr:`~repro.engine.LCMSREngine.bundle_cache_key` at execution
            time, so two services over different artifacts in one process can
            never cross-pollinate, and a generation swap (or a new pending
            mutation) retires every earlier result.
        policy: The query's :meth:`~repro.core.anytime.QueryPolicy.cache_token`:
            every approximate policy (``anytime:…`` / ``sampled:…``) gets a key
            disjoint from the exact one, so an exact lookup can never be
            answered from an approximate entry, and vice versa.
    """

    query: LCMSRQuery
    algorithm: str
    bundle_key: str
    policy: str

    @property
    def instance_key(self) -> InstanceKey:
        """The instance-cache key this result's execution probes.

        Anytime result keys map to the *exact* instance key: a budgeted query
        solves the same built instance (the deadline is attached at solve
        time), so exact and anytime queries legitimately share one build.
        Sampled keys keep their token — estimated weights get their own entry.
        """
        return InstanceKey(
            keywords=self.query.keywords,
            region=self.query.region,
            bundle_key=self.bundle_key,
            policy=self.policy if self.policy.startswith("sampled") else "exact",
        )
