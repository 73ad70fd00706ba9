"""An exact LCMSR oracle for small instances.

The paper has no exact competitor (the problem is NP-hard, Theorem 1) and therefore
reports accuracy relative to TGEN. For the reproduction we additionally provide a
brute-force oracle usable on small windows: it enumerates every connected node subset
of the window graph, computes the minimum length needed to connect the subset (the
minimum spanning tree of the induced subgraph — a region never benefits from extra
edges because only node weights count), and returns the feasible subset with the
largest weight. Tests use it to validate APP/TGEN/Greedy accuracy against the true
optimum, which is a stronger check than the paper could run.

When the instance's ``pruning`` policy allows it (and every node weight is
non-negative — the builder-produced weights always are), the enumeration runs as
a branch-and-bound: a min-heap of the ``k`` best candidate weights seen so far is
the incumbent, and any anchor or branch whose *positive-weight potential* (the
sum of ``max(σ_v, 0)`` over the nodes the branch can still reach) falls strictly
below the k-th incumbent — after a ``1 + 1e-9`` admissibility guard — is skipped
whole. Skipped subsets all have weight strictly below the final k-th weight, and
the surviving candidates keep their enumeration order, so the stable sort that
ranks them produces byte-identical results to the exhaustive path (the parity
suite checks this). Pruning never reorders the enumeration and never prunes on
length (the induced-subgraph MST is not monotone under subset growth — adding a
Steiner node can shorten it).
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.anytime import annotate_anytime_stats
from repro.core.instance import ProblemInstance
from repro.core.region import Region
from repro.core.result import RegionResult, TopKResult
from repro.core.topk import resolve_k
from repro.exceptions import SolverError
from repro.network.compact import GraphView
from repro.network.graph import edge_key


class _BudgetExpired(Exception):
    """Internal control-flow signal: the instance's anytime budget ran out."""


class ExactSolver:
    """Brute-force optimal LCMSR solver for small query windows.

    Args:
        max_nodes: Refuse instances whose window has more nodes than this (the
            enumeration is exponential; 20 nodes ≈ one million subsets).
    """

    name = "Exact"

    def __init__(self, max_nodes: int = 20) -> None:
        self.max_nodes = max_nodes

    def solve(self, instance: ProblemInstance) -> RegionResult:
        """Return the optimal region (provably, for small windows).

        Args:
            instance: The windowed, weighted problem instance to solve.

        Returns:
            The true optimum over all connected feasible subsets; an empty result
            when no node in the window is relevant.

        Raises:
            SolverError: If the window exceeds ``max_nodes`` (the enumeration is
                exponential).
        """
        start = time.perf_counter()
        graph = instance.graph
        if graph.num_nodes > self.max_nodes:
            raise SolverError(
                f"ExactSolver is limited to {self.max_nodes} nodes; "
                f"the window has {graph.num_nodes}"
            )
        if not instance.has_relevant_nodes or graph.num_nodes == 0:
            return RegionResult(Region.empty(), self.name, time.perf_counter() - start)
        best, stats = self._best_regions(instance, k=1)
        runtime = time.perf_counter() - start
        if not best:
            return RegionResult(Region.empty(), self.name, runtime, stats=stats)
        return RegionResult(best[0], self.name, runtime, stats=stats)

    def solve_topk(self, instance: ProblemInstance, k: Optional[int] = None) -> TopKResult:
        """Return the provably best ``k`` distinct regions for small windows.

        Args:
            instance: The windowed, weighted problem instance to solve.
            k: Number of distinct regions to return; ``instance.query.k`` when
                omitted.

        Returns:
            Up to ``k`` distinct regions in decreasing score order.

        Raises:
            SolverError: If ``k`` is smaller than 1 or the window exceeds
                ``max_nodes``.
        """
        start = time.perf_counter()
        k = resolve_k(instance, k)
        graph = instance.graph
        if graph.num_nodes > self.max_nodes:
            raise SolverError(
                f"ExactSolver is limited to {self.max_nodes} nodes; "
                f"the window has {graph.num_nodes}"
            )
        regions, stats = self._best_regions(instance, k=k)
        runtime = time.perf_counter() - start
        results = [RegionResult(region, self.name, runtime) for region in regions]
        return TopKResult(results, self.name, runtime, stats=stats)

    # ------------------------------------------------------------------ enumeration
    def _best_regions(
        self, instance: ProblemInstance, k: int
    ) -> Tuple[List[Region], Dict[str, float]]:
        graph = instance.graph
        weights = instance.weights
        delta = instance.query.delta
        nodes = sorted(graph.node_ids())
        candidates: List[Tuple[float, float, FrozenSet[int], FrozenSet[Tuple[int, int]]]] = []
        # Min-heap of the k best candidate weights seen so far: heap[0] is a
        # lower bound on the final k-th weight, so anything provably below it
        # can be skipped without affecting the top k.
        heap: List[float] = []
        stats: Dict[str, float] = {
            "exact_subsets_considered": 0.0,
            "exact_branches_pruned": 0.0,
            "exact_anchors_skipped": 0.0,
        }

        budget = instance.budget

        def consider(subset: FrozenSet[int]) -> None:
            # Cooperative deadline, polled once per enumerated subset (the
            # check is a counter decrement except every check_interval calls).
            if budget is not None and budget.expired():
                raise _BudgetExpired
            stats["exact_subsets_considered"] += 1
            mst = _induced_mst(graph, subset)
            if mst is None:
                return
            length, edges = mst
            if length > delta + 1e-12:
                return
            weight = sum(weights.get(node_id, 0.0) for node_id in subset)
            if weight <= 0:
                return
            candidates.append((weight, -length, frozenset(subset), frozenset(edges)))
            if len(heap) < k:
                heapq.heappush(heap, weight)
            elif weight > heap[0]:
                heapq.heapreplace(heap, weight)

        # Branch-and-bound needs non-negative weights: the positive-potential
        # bounds below only dominate subset sums when no negative weight can
        # be excluded from a subset to raise it above its positive mass.
        prune = instance.pruning_enabled and all(w >= 0.0 for w in weights.values())
        # Upper bound on the best subset the truncated enumeration never
        # considered (None while the run completes in budget).
        open_bound: Optional[float] = None
        try:
            if not prune:
                for subset in _connected_subsets(graph, nodes):
                    consider(subset)
            else:
                node_set = set(nodes)
                pos = {v: max(weights.get(v, 0.0), 0.0) for v in nodes}
                # suffix[i] bounds the weight of every subset anchored at nodes[i:]
                # (anchored subsets only use nodes >= their anchor). Sequential
                # right-to-left accumulation of non-negative terms makes the suffix
                # exactly non-increasing and exactly 0.0 iff no positive weight
                # remains — see repro.core.bounds.positive_suffix_potentials.
                suffix = [0.0] * (len(nodes) + 1)
                for i in range(len(nodes) - 1, -1, -1):
                    suffix[i] = suffix[i + 1] + pos[nodes[i]]
                anchor_index = 0
                try:
                    for i, anchor in enumerate(nodes):
                        anchor_index = i
                        if suffix[i] == 0.0:
                            # Every remaining node has weight <= 0: all remaining
                            # subsets are filtered by the weight > 0 check. Exact skip.
                            stats["exact_anchors_skipped"] += len(nodes) - i
                            break
                        if len(heap) >= k and suffix[i] * _BB_GUARD < heap[0]:
                            stats["exact_anchors_skipped"] += 1
                            continue
                        allowed = {v for v in node_set if v >= anchor}
                        initial_frontier = sorted(
                            neighbor for neighbor in graph.neighbors(anchor) if neighbor in allowed
                        )
                        _grow_bb(
                            graph, allowed, {anchor}, initial_frontier, set(),
                            consider, pos, heap, k, stats,
                        )
                except _BudgetExpired:
                    # Everything not yet enumerated is anchored at nodes[i:] for
                    # the current (or a later) anchor, and suffix is
                    # non-increasing, so suffix[anchor_index] bounds every
                    # subset the truncated run skipped — the true B&B gap.
                    open_bound = suffix[anchor_index]
                    raise
        except _BudgetExpired:
            stats["budget_expired"] = 1.0

        candidates.sort(key=lambda item: (-item[0], item[1]))
        regions: List[Region] = []
        seen: Set[FrozenSet[int]] = set()
        for weight, neg_length, node_set_, edge_set in candidates:
            if node_set_ in seen:
                continue
            seen.add(node_set_)
            regions.append(
                Region(nodes=node_set_, edges=edge_set, length=-neg_length, weight=weight)
            )
            if len(regions) >= k:
                break
        achieved = regions[0].weight if regions else 0.0
        gap = max(0.0, open_bound - achieved) if open_bound is not None else None
        annotate_anytime_stats(instance, achieved, stats, regret_bound=gap)
        return regions, stats


_BB_GUARD = 1.0 + 1e-9
"""Admissibility guard for the branch-and-bound potential comparisons.

``math.fsum`` potentials are exactly rounded and subset weights are plain float
sums of at most ``max_nodes`` non-negative terms, so the true relation
``weight <= potential`` can be violated in float by a few ulps at most; the
guard makes the skip test strictly conservative.
"""


def _grow_bb(
    graph: GraphView,
    allowed: Set[int],
    subset: Set[int],
    frontier: List[int],
    forbidden: Set[int],
    consider: Callable[[FrozenSet[int]], None],
    pos: Dict[int, float],
    heap: List[float],
    k: int,
    stats: Dict[str, float],
) -> None:
    """Branch-and-bound twin of :func:`_grow`: same enumeration, bound-licensed skips.

    Mirrors :func:`_grow` exactly — the current subset is considered first, then
    each frontier branch in order with earlier frontier nodes forbidden — except
    that once the incumbent heap is full, a branch whose positive-weight
    potential cannot beat the k-th incumbent is skipped whole.
    """
    consider(frozenset(subset))
    for index, candidate in enumerate(frontier):
        if candidate in forbidden:
            continue
        # Everything earlier in the frontier is forbidden on this branch so that
        # the same subset cannot be reached through a different insertion order.
        branch_forbidden = forbidden | set(frontier[:index])
        if len(heap) >= k:
            # Every subset in this branch's subtree draws its nodes from
            # allowed \ branch_forbidden (the current subset included), so the
            # positive mass of that pool bounds every subtree subset's weight.
            potential = math.fsum(
                pos[v] for v in allowed if v not in branch_forbidden
            )
            if potential * _BB_GUARD < heap[0]:
                stats["exact_branches_pruned"] += 1
                continue
        new_subset = subset | {candidate}
        new_frontier = [v for v in frontier[index + 1 :] if v not in branch_forbidden]
        present = set(new_frontier)
        for neighbor in graph.neighbors(candidate):
            if (
                neighbor in allowed
                and neighbor not in new_subset
                and neighbor not in branch_forbidden
                and neighbor not in present
            ):
                new_frontier.append(neighbor)
                present.add(neighbor)
        _grow_bb(
            graph, allowed, new_subset, new_frontier, branch_forbidden,
            consider, pos, heap, k, stats,
        )


def _connected_subsets(graph: GraphView, nodes: List[int]):
    """Yield every connected non-empty node subset of ``graph`` exactly once.

    Uses the standard anchored enumeration: for each anchor ``r`` (in increasing id
    order) it enumerates the connected subsets whose minimum node id is ``r``, growing
    the subset one frontier node at a time. A branch that decides *not* to take a
    frontier node forbids it for the rest of that branch, which is what guarantees
    each subset is produced exactly once.
    """
    node_set = set(nodes)
    for anchor in nodes:
        allowed = {v for v in node_set if v >= anchor}
        initial_frontier = sorted(
            neighbor for neighbor in graph.neighbors(anchor) if neighbor in allowed
        )
        yield from _grow(graph, allowed, {anchor}, initial_frontier, set())


def _grow(
    graph: GraphView,
    allowed: Set[int],
    subset: Set[int],
    frontier: List[int],
    forbidden: Set[int],
):
    yield frozenset(subset)
    for index, candidate in enumerate(frontier):
        if candidate in forbidden:
            continue
        # Everything earlier in the frontier is forbidden on this branch so that the
        # same subset cannot be reached through a different insertion order.
        branch_forbidden = forbidden | set(frontier[:index])
        new_subset = subset | {candidate}
        new_frontier = [v for v in frontier[index + 1 :] if v not in branch_forbidden]
        present = set(new_frontier)
        for neighbor in graph.neighbors(candidate):
            if (
                neighbor in allowed
                and neighbor not in new_subset
                and neighbor not in branch_forbidden
                and neighbor not in present
            ):
                new_frontier.append(neighbor)
                present.add(neighbor)
        yield from _grow(graph, allowed, new_subset, new_frontier, branch_forbidden)


def _induced_mst(
    graph: GraphView, subset: FrozenSet[int]
) -> Optional[Tuple[float, List[Tuple[int, int]]]]:
    """Return (length, edges) of the MST of the subgraph induced by ``subset``.

    Returns ``None`` when the induced subgraph is not connected (such a subset cannot
    form a region on its own).
    """
    members = list(subset)
    if len(members) == 1:
        return (0.0, [])
    start = members[0]
    in_tree: Set[int] = {start}
    edges: List[Tuple[int, int]] = []
    total = 0.0
    heap: List[Tuple[float, int, int]] = []
    for neighbor, length in graph.neighbor_items(start):
        if neighbor in subset:
            heapq.heappush(heap, (length, start, neighbor))
    while heap and len(in_tree) < len(members):
        length, u, v = heapq.heappop(heap)
        if v in in_tree:
            continue
        in_tree.add(v)
        edges.append(edge_key(u, v))
        total += length
        for neighbor, neighbor_length in graph.neighbor_items(v):
            if neighbor in subset and neighbor not in in_tree:
                heapq.heappush(heap, (neighbor_length, v, neighbor))
    if len(in_tree) != len(members):
        return None
    return (total, edges)
