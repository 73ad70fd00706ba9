"""Greedy region expansion (paper Section 6.1).

The greedy algorithm seeds the explored region with the heaviest node inside ``Q.Λ``
and repeatedly attaches the neighbouring node with the best combined rank

    ρ(v) = µ · (1 − τ(v, attach)/τmax) + (1 − µ) · σ_v / σmax,

where ``τ(v, attach)`` is the length of the shortest edge connecting the candidate to
the explored region, ``τmax`` is the longest edge in ``Q.Λ`` and ``σmax`` the largest
node weight in ``Q.Λ``. Expansion stops when no neighbouring node can be added without
exceeding the length constraint. The parameter µ trades off proximity against weight;
the pure-weight (µ = 0) and pure-length (µ = 1) variants the paper discusses are the
endpoints of the same knob.

Note on the paper's formula: the paper's text prints the weight term as
``σ_{vj}/σmax`` (the weight of the already-included anchor node); ranking candidates
by the anchor's weight cannot differentiate them, so — consistent with the algorithm's
stated intent ("the node weight ... of the selecting node") — we use the candidate's
weight ``σ_{vi}``. This interpretation is recorded here and in the "Deviations
from the paper" section of ``docs/ARCHITECTURE.md``.

Candidate enumeration order is part of the determinism contract: each round scans
the region's members in *insertion order* and each member's neighbours in graph
iteration order. The expansion runs on the instance's
:class:`~repro.core.dense.DenseInstance` and replays exactly that sequence —
members append their CSR rows (with ranks precomputed once) to one flat
candidate table as they join, so one scan selects the same attachment, bit for
bit, as the dict-keyed loop of :class:`~repro.core.reference.ReferenceGreedy`.
Each grown region is one call into the compiled kernel (``kernel.c``, built
and loaded by :mod:`repro.core.kernel` on first import), on the substrate's
arrays.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Set

import numpy as np

from repro.core import kernel
from repro.core.anytime import annotate_anytime_stats
from repro.core.instance import ProblemInstance
from repro.core.region import Region
from repro.core.result import RegionResult, TopKResult
from repro.core.topk import resolve_k
from repro.exceptions import SolverError
from repro.network.graph import edge_key


class GreedySolver:
    """The paper's Greedy algorithm.

    Args:
        mu: The balance parameter µ ∈ [0, 1]; the paper settles on 0.2 for NY and 0.4
            for USANW.
    """

    name = "Greedy"

    def __init__(self, mu: float = 0.2) -> None:
        if not 0.0 <= mu <= 1.0:
            raise SolverError(f"mu must be in [0, 1], got {mu}")
        self.mu = mu

    # ------------------------------------------------------------------ public API
    def solve(self, instance: ProblemInstance) -> RegionResult:
        """Answer an LCMSR query by greedy region expansion.

        Args:
            instance: The windowed, weighted problem instance to solve.

        Returns:
            The grown region (no approximation guarantee); an empty result when no
            node in the window is relevant.
        """
        start = time.perf_counter()
        prune_stats: Dict[str, float] = {}
        region = self._grow(
            instance, excluded=set(), budget=instance.budget, stats=prune_stats
        )
        runtime = time.perf_counter() - start
        stats = {"nodes_expanded": float(region.num_nodes)} if region else {}
        stats.update(prune_stats)
        annotate_anytime_stats(instance, region.weight if region else 0.0, stats)
        return RegionResult(region or Region.empty(), self.name, runtime, stats=stats)

    def solve_topk(self, instance: ProblemInstance, k: Optional[int] = None) -> TopKResult:
        """Top-k variant (Section 6.2): regrow repeatedly, excluding earlier regions.

        Args:
            instance: The windowed, weighted problem instance to solve.
            k: Number of distinct regions to return; ``instance.query.k`` when
                omitted.

        Returns:
            Up to ``k`` node-disjoint regions in the order they were grown.

        Raises:
            SolverError: If ``k`` is smaller than 1.
        """
        start = time.perf_counter()
        k = resolve_k(instance, k)
        results: List[RegionResult] = []
        prune_stats: Dict[str, float] = {}
        budget = instance.budget
        excluded: Set[int] = set()
        for _ in range(k):
            region = self._grow(
                instance, excluded=excluded, budget=budget, stats=prune_stats
            )
            if region is None or region.is_empty:
                break
            results.append(RegionResult(region, self.name))
            excluded |= set(region.nodes)
            if budget is not None and budget.expired_now():
                prune_stats["budget_expired"] = 1.0
                break
        runtime = time.perf_counter() - start
        annotate_anytime_stats(
            instance, sum(r.region.weight for r in results), prune_stats,
            one_region=False,
        )
        results = [
            RegionResult(r.region, self.name, runtime, stats=r.stats) for r in results
        ]
        return TopKResult(results, self.name, runtime, stats=prune_stats)

    # ------------------------------------------------------------------ expansion
    def _grow(
        self,
        instance: ProblemInstance,
        excluded: Set[int],
        budget=None,
        stats: Optional[Dict[str, float]] = None,
    ) -> Optional[Region]:
        """Grow one region on the instance's substrate, avoiding ``excluded`` ids.

        The compiled kernel grows it. ``stats`` (when given) accumulates the
        ``greedy_candidates_scanned`` / ``greedy_candidates_compacted``
        counters: candidate-table entries scanned over all rounds, and the
        dead entries dropped when the table is compacted.
        """
        dense = instance.dense
        mask = bytearray(dense.num_nodes)
        if excluded:
            taken = np.fromiter(excluded, dtype=np.int64, count=len(excluded))
            np.frombuffer(mask, dtype=np.uint8)[np.isin(dense.ids, taken)] = 1
        grown = kernel.LIBRARY.greedy_grow(
            dense, self.mu, instance.query.delta, mask, budget
        )
        if grown is None:
            return None
        if stats is not None:
            if grown.expired:
                stats["budget_expired"] = 1.0
            stats["greedy_candidates_scanned"] = (
                stats.get("greedy_candidates_scanned", 0.0) + grown.scanned
            )
            stats["greedy_candidates_compacted"] = (
                stats.get("greedy_candidates_compacted", 0.0) + grown.compacted
            )
        nodes = dense.ids[grown.positions].tolist()
        members = dense.ids[grown.attached[1:]].tolist()
        return Region(
            nodes=frozenset(nodes),
            edges=frozenset(
                edge_key(member, node) for member, node in zip(members, nodes[1:])
            ),
            length=grown.length,
            weight=sum(dense.sigma[grown.positions].tolist()),
        )
