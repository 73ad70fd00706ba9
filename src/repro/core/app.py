"""APP: the (5 + ε)-approximation algorithm (paper Section 4).

The algorithm has three stages (Figure 5 / Algorithm 1 of the paper):

1. **Weight scaling** — node weights are scaled to integers with
   ``θ = α·σmax/|VQ|`` (:mod:`repro.core.scaling`), losing at most a factor ``1 - α``
   of the optimal weight (Theorem 2).
2. **Binary search with a k-MST solver** — find a quota ``X`` such that the
   node-weighted k-MST solver returns a candidate tree ``TC`` of length at most
   ``3·Q.∆`` under quota ``X`` but exceeds ``3·Q.∆`` under quota ``(1+β)·X``
   (Lemmas 2–5, Function ``binarySearch``). The returned ``TC`` then carries at least
   ``1/(1+β)`` of the optimal scaled weight.
3. **findOptTree** — a pseudo-polynomial dynamic program over ``TC`` (Lemmas 6–7,
   Definition 5) that extracts the feasible (length ≤ ``Q.∆``) sub-region of ``TC``
   with the largest scaled weight. Lemma 8 guarantees such a sub-region retains at
   least a fifth of ``TC``'s weight, which yields the overall ``(5 + ε)`` bound
   (Theorem 4).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.instance import ProblemInstance
from repro.core.kmst import CandidateTree, QuotaTreeSolver
from repro.core.region import Region
from repro.core.result import RegionResult, TopKResult
from repro.core.scaling import ScalingContext
from repro.core.topk import resolve_k
from repro.core.tuples import RegionTuple, TupleArray
from repro.exceptions import SolverError
from repro.network.compact import CompactNetwork


@dataclass
class BinarySearchStep:
    """One row of the paper's Table 1: the state of a binary-search iteration."""

    lower: float
    upper: float
    quota: float
    tree_length: Optional[float]
    boosted_quota: Optional[float] = None
    boosted_tree_length: Optional[float] = None


@dataclass
class BinarySearchTrace:
    """The full binary-search trace (reproduces the paper's Table 1 mechanics)."""

    steps: List[BinarySearchStep] = field(default_factory=list)

    def add(self, step: BinarySearchStep) -> None:
        """Append one iteration's record."""
        self.steps.append(step)

    def __len__(self) -> int:
        return len(self.steps)

    def rows(self) -> List[Dict[str, Optional[float]]]:
        """Return the trace as dictionaries, one per iteration (for table printing)."""
        return [
            {
                "step": index + 1,
                "L": step.lower,
                "U": step.upper,
                "X": step.quota,
                "TC.l": step.tree_length,
                "(1+beta)X": step.boosted_quota,
                "TC'.l": step.boosted_tree_length,
            }
            for index, step in enumerate(self.steps)
        ]


class APPSolver:
    """The paper's APP algorithm.

    Args:
        alpha: Scaling parameter α ∈ (0, 1] controlling the integer weight resolution
            (paper default for NY experiments: 0.5).
        beta: Binary-search slack β > 0 (paper default 0.1). Smaller β tightens the
            approximation ratio ``(1 - α)/(5 + 5β)`` at the cost of more iterations.
        max_iterations: Hard cap on binary-search iterations, at least 1 (the
            paper's analysis bounds them by ``O(log_{1+β} |VQ|)``; the cap is a
            safety net).
        closure_neighbors / lambda_factors: Forwarded to the
            :class:`~repro.core.kmst.QuotaTreeSolver`.
    """

    name = "APP"

    def __init__(
        self,
        alpha: float = 0.5,
        beta: float = 0.1,
        max_iterations: int = 60,
        closure_neighbors: int = 8,
        lambda_factors: Optional[Sequence[float]] = None,
    ) -> None:
        if not (alpha > 0 and math.isfinite(alpha)):
            raise SolverError(f"alpha must be positive and finite, got {alpha}")
        if beta <= 0:
            raise SolverError(f"beta must be positive, got {beta}")
        if max_iterations < 1:
            raise SolverError(f"max_iterations must be at least 1, got {max_iterations}")
        self.alpha = alpha
        self.beta = beta
        self.max_iterations = max_iterations
        self.closure_neighbors = closure_neighbors
        self.lambda_factors = lambda_factors

    # ------------------------------------------------------------------ public API
    def solve(self, instance: ProblemInstance) -> RegionResult:
        """Answer an LCMSR query with the (5 + ε)-approximation pipeline.

        Args:
            instance: The windowed, weighted problem instance to solve.

        Returns:
            The best region found (with binary-search / GW-run statistics in
            ``stats``); an empty result when no node in the window is relevant.
        """
        start = time.perf_counter()
        prepared = self._prepare(instance)
        if prepared is None:
            return RegionResult(Region.empty(), self.name, time.perf_counter() - start)
        scaling, scaled_weights, quota_solver = prepared

        candidate_tree, trace = self._binary_search(instance, scaled_weights, scaling, quota_solver)
        stats: Dict[str, float] = {
            "binary_search_iterations": float(len(trace)),
            "gw_runs": float(quota_solver.num_gw_runs),
        }
        if candidate_tree is None:
            runtime = time.perf_counter() - start
            return RegionResult(Region.empty(), self.name, runtime, stats=stats)

        delta = instance.query.delta
        if candidate_tree.length <= delta:
            best_tuple = RegionTuple(
                length=candidate_tree.length,
                weight=candidate_tree.weight,
                scaled_weight=candidate_tree.scaled_weight,
                nodes=candidate_tree.nodes,
                edges=candidate_tree.edges,
            )
        else:
            best_tuple, _ = find_opt_tree(
                candidate_tree, instance.graph, instance.weights, scaled_weights, delta
            )
        runtime = time.perf_counter() - start
        stats["candidate_tree_length"] = candidate_tree.length
        stats["candidate_tree_nodes"] = float(candidate_tree.num_nodes)
        if best_tuple is None:
            return RegionResult(Region.empty(), self.name, runtime, stats=stats)
        return RegionResult(
            region=best_tuple.to_region(),
            algorithm=self.name,
            runtime_seconds=runtime,
            scaled_weight=best_tuple.scaled_weight,
            stats=stats,
        )

    def solve_topk(self, instance: ProblemInstance, k: Optional[int] = None) -> TopKResult:
        """Answer a top-k LCMSR query (paper Section 6.2).

        After the candidate tree is found, findOptTree computes the tuple arrays of all
        its nodes, and the k best distinct feasible regions are read off the arrays.

        Args:
            instance: The windowed, weighted problem instance to solve.
            k: Number of distinct regions to return; ``instance.query.k`` when
                omitted.

        Returns:
            Up to ``k`` distinct regions in decreasing score order (fewer when the
            window does not hold ``k`` distinct feasible regions).

        Raises:
            SolverError: If ``k`` is smaller than 1.
        """
        start = time.perf_counter()
        k = resolve_k(instance, k)
        prepared = self._prepare(instance)
        if prepared is None:
            return TopKResult([], self.name, time.perf_counter() - start)
        scaling, scaled_weights, quota_solver = prepared
        candidate_tree, trace = self._binary_search(instance, scaled_weights, scaling, quota_solver)
        if candidate_tree is None:
            return TopKResult([], self.name, time.perf_counter() - start)
        _, arrays = find_opt_tree(
            candidate_tree,
            instance.graph,
            instance.weights,
            scaled_weights,
            instance.query.delta,
        )
        ranked = rank_tuples_from_arrays(arrays, k)
        runtime = time.perf_counter() - start
        results = [
            RegionResult(t.to_region(), self.name, runtime, scaled_weight=t.scaled_weight)
            for t in ranked
        ]
        return TopKResult(results, self.name, runtime)

    def trace_binary_search(self, instance: ProblemInstance) -> BinarySearchTrace:
        """Run only the binary search and return its trace (Table 1 reproduction)."""
        prepared = self._prepare(instance)
        if prepared is None:
            return BinarySearchTrace()
        scaling, scaled_weights, quota_solver = prepared
        _, trace = self._binary_search(instance, scaled_weights, scaling, quota_solver)
        return trace

    # ------------------------------------------------------------------ internals
    def _prepare(
        self, instance: ProblemInstance
    ) -> Optional[Tuple[ScalingContext, Dict[int, int], QuotaTreeSolver]]:
        if not instance.has_relevant_nodes or instance.num_candidate_nodes == 0:
            return None
        dense = instance.dense
        # θ from the precomputed σmax aggregate, σ̂ in one vectorised pass; the
        # scaled dict replays the weight-dict order, so everything downstream
        # (terminal sort, prizes) is bit-identical to the reference twin.
        scaling = ScalingContext.from_sigma_max(
            instance.sigma_max(), instance.num_candidate_nodes, self.alpha
        )
        order = dense.relevant_order
        scaled_weights = dict(
            zip(dense.ids[order].tolist(), scaling.scale_array(dense.sigma[order]).tolist())
        )
        kwargs = {}
        if self.lambda_factors is not None:
            kwargs["lambda_factors"] = self.lambda_factors
        quota_solver = QuotaTreeSolver(
            instance.graph,
            instance.weights,
            scaled_weights,
            closure_neighbors=self.closure_neighbors,
            **kwargs,
        )
        return scaling, scaled_weights, quota_solver

    def _binary_search(
        self,
        instance: ProblemInstance,
        scaled_weights: Dict[int, int],
        scaling: ScalingContext,
        quota_solver: QuotaTreeSolver,
    ) -> Tuple[Optional[CandidateTree], BinarySearchTrace]:
        """The paper's Function binarySearch, using ``3·Q.∆`` per Lemma 4."""
        delta = instance.query.delta
        length_budget = 3.0 * delta
        lower = float(scaling.lower_bound())
        upper = float(min(scaling.upper_bound(), max(quota_solver.total_scaled_weight(), 1)))
        if upper < lower:
            upper = lower
        trace = BinarySearchTrace()
        best_feasible: Optional[CandidateTree] = None

        for _ in range(self.max_iterations):
            quota = (lower + upper) / 2.0
            tree = quota_solver.solve(max(1, math.ceil(quota)))
            tree_length = tree.length if tree is not None else None
            step = BinarySearchStep(lower=lower, upper=upper, quota=quota, tree_length=tree_length)
            if tree is None or tree.length > length_budget:
                upper = quota
                trace.add(step)
            else:
                best_feasible = tree
                boosted = (1.0 + self.beta) * quota
                boosted_tree = quota_solver.solve(max(1, math.ceil(boosted)))
                step.boosted_quota = boosted
                step.boosted_tree_length = (
                    boosted_tree.length if boosted_tree is not None else None
                )
                trace.add(step)
                if boosted_tree is None or boosted_tree.length > length_budget:
                    break
                lower = quota
            if upper - lower <= 1.0:
                break

        if best_feasible is None:
            # The lower bound corresponds to the single heaviest node (length 0), which
            # is always feasible; fall back to it explicitly.
            best_feasible = quota_solver.solve(max(1, int(lower)))
        return best_feasible, trace


# ---------------------------------------------------------------------------- findOptTree
def find_opt_tree(
    candidate_tree: CandidateTree,
    graph: CompactNetwork,
    weights: Mapping[int, float],
    scaled_weights: Mapping[int, int],
    delta: float,
) -> Tuple[Optional[RegionTuple], Dict[int, TupleArray]]:
    """The paper's Function findOptTree: best feasible sub-region of a tree.

    Processes the tree bottom-up from its leaves (Function ``findOptTree`` in the
    paper): every node keeps an array of region tuples rooted at it, keyed by scaled
    weight with only the shortest tuple per key (Lemma 6), and when a leaf is folded
    into its remaining neighbour the two arrays are combined through the connecting
    edge (Lemma 7). Only feasible tuples (length ≤ ``delta``) are kept.

    Args:
        candidate_tree: The tree ``TC`` returned by the binary search.
        graph: The road network (only its ``edge_length`` method is used).
        weights / scaled_weights: Node weights σ_v and σ̂_v.
        delta: The query length constraint ``Q.∆``.

    Returns:
        ``(best_tuple, arrays)`` where ``arrays`` maps every tree node to its final
        tuple array (used by the top-k extension). ``best_tuple`` is ``None`` only for
        an empty candidate tree.
    """
    nodes = list(candidate_tree.nodes)
    if not nodes:
        return None, {}

    adjacency: Dict[int, Dict[int, float]] = {v: {} for v in nodes}
    for u, v in candidate_tree.edges:
        length = graph.edge_length(u, v)
        adjacency[u][v] = length
        adjacency[v][u] = length

    arrays: Dict[int, TupleArray] = {}
    best: Optional[RegionTuple] = None
    for v in nodes:
        array = TupleArray()
        singleton = RegionTuple.singleton(v, weights.get(v, 0.0), scaled_weights.get(v, 0))
        array.update(singleton)
        arrays[v] = array
        if singleton.better_than(best):
            best = singleton

    remaining_degree = {v: len(adjacency[v]) for v in nodes}
    remaining_nodes = set(nodes)
    queue = [v for v in nodes if remaining_degree[v] <= 1]
    while queue and len(remaining_nodes) > 1:
        leaf = queue.pop()
        if leaf not in remaining_nodes:
            continue
        neighbors = [n for n in adjacency[leaf] if n in remaining_nodes]
        if not neighbors:
            remaining_nodes.discard(leaf)
            continue
        parent = neighbors[0]
        edge_length = adjacency[leaf][parent]
        parent_array = arrays[parent]
        new_tuples: List[RegionTuple] = []
        for leaf_tuple in arrays[leaf].tuples():
            for parent_tuple in parent_array.tuples():
                combined_length = leaf_tuple.length + parent_tuple.length + edge_length
                if combined_length > delta + 1e-12:
                    continue
                combined = leaf_tuple.combine(parent_tuple, leaf, parent, edge_length)
                new_tuples.append(combined)
        for combined in new_tuples:
            parent_array.update(combined)
            if combined.better_than(best):
                best = combined
        remaining_nodes.discard(leaf)
        remaining_degree[parent] -= 1
        if remaining_degree[parent] <= 1 and parent in remaining_nodes:
            queue.append(parent)
    return best, arrays


def rank_tuples_from_arrays(arrays: Mapping[int, TupleArray], k: int) -> List[RegionTuple]:
    """Return the ``k`` best distinct feasible tuples across all tuple arrays.

    Distinctness is by node set: the same region is stored in the arrays of several of
    its nodes, and returning it twice would make the top-k result useless.
    """
    seen: Set[frozenset] = set()
    pool: List[RegionTuple] = []
    for array in arrays.values():
        for candidate in array.tuples():
            if candidate.nodes in seen:
                continue
            seen.add(candidate.nodes)
            pool.append(candidate)
    pool.sort(key=lambda t: (-t.scaled_weight, -t.weight, t.length))
    return pool[:k]
