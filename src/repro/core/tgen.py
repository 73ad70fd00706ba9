"""TGEN: the tuple-generation heuristic (paper Section 5, Algorithm 2).

TGEN extends the findOptTree dynamic program from trees to the whole (scaled) query
window graph. Every node maintains an *explored region tuple array* (Definition 6):
for each scaled weight value, the shortest enumerated feasible region containing the
node. The algorithm traverses the window in breadth-first order, processes every edge
exactly once, and when processing an edge ``(vi, vj)`` combines every stored region of
``vi`` with every stored region of ``vj`` through that edge — skipping combinations
that would create a cycle (Lemma 9) or exceed the length constraint. Because only the
shortest region per (node, scaled weight) pair is kept, the enumeration is bounded by
``O(|EQ| · Tmax²)`` while possibly discarding the optimum — TGEN is a heuristic, but
the paper (and our benchmarks) find it the most accurate of the three algorithms.

The solver runs on the dense substrate. Each solve is one call into the compiled
kernel (``kernel.c``, built and loaded by :mod:`repro.core.kernel` on first
import) that runs the whole traversal. Its dict-keyed twin,
:class:`~repro.core.reference.ReferenceTGEN`, is the oracle its answers are held
to.
"""

from __future__ import annotations

import math
import time
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core import kernel
from repro.core.anytime import annotate_anytime_stats
from repro.core.instance import ProblemInstance
from repro.core.region import Region
from repro.core.result import RegionResult, TopKResult
from repro.core.scaling import ScalingContext
from repro.core.topk import resolve_k
from repro.core.tuples import RegionTuple
from repro.exceptions import SolverError
from repro.network.graph import edge_key

#: A region tuple as the kernel returns it: ``(length, weight, scaled, left,
#: right, u, v)``. A combined tuple links its two parents (``left`` from the
#: array of ``u``, ``right`` from the array of ``v``) and joins them through
#: the edge ``(u, v)``; a singleton has no parents and ``u == v`` is its
#: position.
DenseTuple = Tuple[Any, ...]


class TGENSolver:
    """The paper's TGEN algorithm.

    Args:
        alpha: Scaling parameter α. TGEN uses much larger values than APP (the paper
            sweeps 50–1600 and settles on 400 for NY / 300 for USANW) because every
            node in the window keeps a tuple array, so the arrays must stay small.
        max_tuples_per_node: Optional hard cap on tuples stored per node, from
            1 to ``2**31 - 1``, the largest the kernel's int32 field holds (an
            ablation knob, see ``bench_ablation_tuple_cap``; ``None``
            reproduces the paper).
        edge_order: ``"bfs"`` (the paper's choice) or ``"length"`` (ascending edge
            length, the alternative the paper reports as no more accurate but slower).
    """

    name = "TGEN"

    #: Number of scaled-weight buckets targeted when ``alpha`` is left on automatic.
    #: The paper's settings (α = 400 on NY with tens of thousands of window nodes)
    #: correspond to coarse buckets; 32 reproduces that resolution at any dataset
    #: scale.
    AUTO_BUCKETS = 32

    def __init__(
        self,
        alpha: Optional[float] = None,
        max_tuples_per_node: Optional[int] = None,
        edge_order: str = "bfs",
    ) -> None:
        if alpha is not None and not (alpha > 0 and math.isfinite(alpha)):
            raise SolverError(f"alpha must be positive and finite, got {alpha}")
        if max_tuples_per_node is not None and not 1 <= max_tuples_per_node <= 2**31 - 1:
            raise SolverError(
                f"max_tuples_per_node must be from 1 to 2**31 - 1, got {max_tuples_per_node}"
            )
        if edge_order not in ("bfs", "length"):
            raise SolverError(f"edge_order must be 'bfs' or 'length', got {edge_order!r}")
        self.alpha = alpha
        self.max_tuples_per_node = max_tuples_per_node
        self.edge_order = edge_order

    def _effective_alpha(self, instance: ProblemInstance) -> float:
        """Resolve the scaling parameter: explicit α, or scale-matched automatic."""
        if self.alpha is not None:
            return self.alpha
        return ScalingContext.alpha_for_buckets(
            max(1, instance.num_candidate_nodes), self.AUTO_BUCKETS
        )

    # ------------------------------------------------------------------ public API
    def solve(self, instance: ProblemInstance) -> RegionResult:
        """Answer an LCMSR query by tuple-generation over the window graph.

        Args:
            instance: The windowed, weighted problem instance to solve.

        Returns:
            The best enumerated region (with tuple/edge counters in ``stats``);
            an empty result when no node in the window is relevant.
        """
        start = time.perf_counter()
        best, _, stats = self._run(instance)
        runtime = time.perf_counter() - start
        annotate_anytime_stats(instance, best.weight if best else 0.0, stats)
        if best is None:
            return RegionResult(Region.empty(), self.name, runtime, stats=stats)
        return RegionResult(
            region=best.to_region(),
            algorithm=self.name,
            runtime_seconds=runtime,
            scaled_weight=best.scaled_weight,
            stats=stats,
        )

    def solve_topk(self, instance: ProblemInstance, k: Optional[int] = None) -> TopKResult:
        """Answer a top-k LCMSR query by ranking the tuples of all node arrays.

        Args:
            instance: The windowed, weighted problem instance to solve.
            k: Number of distinct regions to return; ``instance.query.k`` when
                omitted.

        Returns:
            Up to ``k`` distinct regions in decreasing score order.

        Raises:
            SolverError: If ``k`` is smaller than 1.
        """
        start = time.perf_counter()
        k = resolve_k(instance, k)
        best, ranked, stats = self._run(instance, top_k=k)
        runtime = time.perf_counter() - start
        annotate_anytime_stats(instance, best.weight if best else 0.0, stats)
        quality = {key: value for key, value in stats.items()
                   if key.startswith("quality_") or key == "budget_expired"}
        if best is None:
            return TopKResult([], self.name, runtime, stats=quality)
        results = [
            RegionResult(t.to_region(), self.name, runtime, scaled_weight=t.scaled_weight)
            for t in ranked
        ]
        return TopKResult(results, self.name, runtime, stats=quality)

    # ------------------------------------------------------------------ core loop
    def _run(
        self, instance: ProblemInstance, top_k: int = 0
    ) -> Tuple[Optional[RegionTuple], List[RegionTuple], Dict[str, float]]:
        """Run the traversal; return the best tuple, the best ``top_k`` distinct
        tuples (none when ``top_k`` is 0, which collects no pool) and the
        solver counters.

        The traversal runs in one call into the compiled kernel, which
        returns parent-linked tuples that :func:`_materialise` rebuilds.
        """
        if not instance.has_relevant_nodes or instance.num_candidate_nodes == 0:
            return None, [], {"tuples_generated": 0.0, "edges_processed": 0.0}
        dense = instance.dense
        scaling = ScalingContext.from_sigma_max(
            instance.sigma_max(), instance.num_candidate_nodes, self._effective_alpha(instance)
        )
        scaled = scaling.scale_array(dense.sigma)
        # Traversal seeds: every node, relevant (weighted) nodes first, sorted
        # by (-σ_v, node id). The paper selects "any unprocessed node";
        # seeding with relevant nodes first makes the BFS fronts grow out of
        # the object clusters, which matches the paper's accuracy while being
        # deterministic for tests.
        seeds = np.lexsort((dense.ids, -dense.sigma))
        best, ranked, stats, ids = kernel.LIBRARY.tgen_solve(
            dense, scaled, seeds, instance.query.delta, self.max_tuples_per_node,
            self.edge_order == "length", top_k, max(64, 16 * top_k), instance.budget,
        )
        return (
            _materialise(best, ids),
            [_materialise(t, ids) for t in ranked],
            stats,
        )


def _materialise(root: DenseTuple, ids: Mapping[int, int]) -> RegionTuple:
    """Rebuild the :class:`RegionTuple` of a dense tuple from its parent links.

    An explicit stack lists the derivation tree parents-first; walking that
    list backwards replays the reference's unions (``nodes_i | nodes_j`` and
    ``(edges_i | edges_j) | {edge}``) children-first, so the node and edge
    sets are the ones :meth:`RegionTuple.combine` builds, down to their
    iteration order. The parents of a tuple are node-disjoint, so every tuple
    occurs once in the tree.
    """
    order: List[DenseTuple] = []
    stack = [root]
    while stack:
        current = stack.pop()
        order.append(current)
        if current[3] is not None:
            stack.append(current[3])
            stack.append(current[4])
    built: Dict[int, Tuple[frozenset, frozenset]] = {}
    for current in reversed(order):
        if current[3] is None:
            sets = (frozenset({ids[current[5]]}), frozenset())
        else:
            nodes_i, edges_i = built.pop(id(current[3]))
            nodes_j, edges_j = built.pop(id(current[4]))
            edge = edge_key(ids[current[5]], ids[current[6]])
            sets = (nodes_i | nodes_j, (edges_i | edges_j) | {edge})
        built[id(current)] = sets
    nodes, edges = built[id(root)]
    return RegionTuple(root[0], root[1], root[2], nodes, edges)
