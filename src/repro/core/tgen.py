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
"""

from __future__ import annotations

import time
from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.anytime import annotate_anytime_stats
from repro.core.dense import DenseInstance
from repro.core.instance import ProblemInstance
from repro.core.region import Region
from repro.core.result import RegionResult, TopKResult
from repro.core.scaling import ScalingContext
from repro.core.topk import resolve_k
from repro.core.tuples import EPS, RegionTuple
from repro.exceptions import SolverError
from repro.network.graph import edge_key

#: A region tuple of the dense loop: ``(length, weight, scaled, mask, left,
#: right, u, v)``. ``mask`` is the node set as a bitmask over window positions;
#: a combined tuple links its two parents (``left`` from the array of ``u``,
#: ``right`` from the array of ``v``) and joins them through the edge
#: ``(u, v)``; a singleton has no parents and ``u == v`` is its position.
DenseTuple = Tuple[Any, ...]


class TGENSolver:
    """The paper's TGEN algorithm.

    Args:
        alpha: Scaling parameter α. TGEN uses much larger values than APP (the paper
            sweeps 50–1600 and settles on 400 for NY / 300 for USANW) because every
            node in the window keeps a tuple array, so the arrays must stay small.
        max_tuples_per_node: Optional hard cap on tuples stored per node, at least
            1 (an ablation knob, see ``bench_ablation_tuple_cap``; ``None``
            reproduces the paper).
        edge_order: ``"bfs"`` (the paper's choice) or ``"length"`` (ascending edge
            length, the alternative the paper reports as no more accurate but slower).
    """

    name = "TGEN"

    #: Number of scaled-weight buckets targeted when ``alpha`` is left on automatic.
    #: The paper's settings (α = 400 on NY with tens of thousands of window nodes)
    #: correspond to coarse buckets; 32 reproduces that resolution regardless of the
    #: dataset scale while keeping pure-Python runtimes practical.
    AUTO_BUCKETS = 32

    def __init__(
        self,
        alpha: Optional[float] = None,
        max_tuples_per_node: Optional[int] = None,
        edge_order: str = "bfs",
    ) -> None:
        if alpha is not None and alpha <= 0:
            raise SolverError(f"alpha must be positive, got {alpha}")
        if max_tuples_per_node is not None and max_tuples_per_node < 1:
            raise SolverError(
                f"max_tuples_per_node must be at least 1, got {max_tuples_per_node}"
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
        solver counters."""
        if not instance.has_relevant_nodes or instance.num_candidate_nodes == 0:
            return None, [], {"tuples_generated": 0.0, "edges_processed": 0.0}
        return self._run_dense(instance, instance.dense, top_k)

    # ------------------------------------------------------------------ dense hot loop
    #: Pair-count threshold above which per-edge feasibility is prefiltered with a
    #: vectorised outer sum instead of per-pair Python float arithmetic.
    _PREFILTER_PAIRS = 32

    def _run_dense(
        self, instance: ProblemInstance, dense: DenseInstance, top_k: int
    ) -> Tuple[Optional[RegionTuple], List[RegionTuple], Dict[str, float]]:
        """The traversal over local node positions.

        The traversal order, the budget poll points, the ``(length, weight,
        scaled)`` arithmetic and the order of array updates are those of the
        dict-keyed loop in :class:`~repro.core.reference.ReferenceTGEN`, so
        regions, floats and counters come out identical. What differs is the
        representation. Scaled weights come from one vectorised
        pass, the BFS runs over CSR positions with flat visited tables and
        packed edge keys, and a region tuple is a flat :data:`DenseTuple`: its
        node set is an int bitmask over positions, so the Lemma 9 test is
        ``mask_i & mask_j`` and the union ``mask_i | mask_j``, and instead of
        an edge set it links its two parents and the joining edge. Node and
        edge sets are rebuilt from those links (:func:`_materialise`) only for
        the regions returned. A node's tuple array is a plain ``{scaled weight:
        tuple}`` dict, and the processed nodes are one mask, so an update
        visits only the members in ``mask & ~processed``. Per-edge tuple
        combinations are prefiltered by a vectorised feasibility mask
        ``(l_i + l_j) + τ ≤ Q.∆`` that enumerates surviving pairs in the
        reference (i-major) order.

        When the instance allows pruning (and no top-k pool is collected — the
        pool deliberately admits zero-scaled tuples), an edge is skipped whole
        once the incumbent has positive scaled weight and *both* endpoint
        arrays hold only zero-scaled tuples: every combination such an edge can
        generate has scaled weight 0 (tuple scaled weights are sums of member
        scaled weights), cannot beat the incumbent, and cannot displace any
        stored tuple (each member of a zero-scaled tuple is itself zero-scaled,
        so its array's key-0 slot holds the length-0 singleton, which a
        positive-length combination never beats). ``max_scaled`` tracks a
        monotone per-position upper bound on each array's largest key — it is
        not lowered on eviction, which only forgoes skips, never unsoundly
        takes one.
        """
        stats: Dict[str, float] = {}
        delta = instance.query.delta
        delta_eps = delta + 1e-12
        n = instance.num_candidate_nodes
        scaling = ScalingContext.from_sigma_max(
            instance.sigma_max(), n, self._effective_alpha(instance)
        )
        scaled_list = scaling.scale_array(dense.sigma).tolist()
        sigma_list = dense.sigma_list()
        # Shared cached list mirrors of the window CSR (built once per window,
        # reused across solves of the same cached substrate).
        indptr, columns, _, lengths, _ = dense.graph_view().adjacency_arrays()
        collect_pool = top_k > 0
        pool_size = max(64, 16 * top_k)

        arrays: List[Dict[int, DenseTuple]] = []
        best: Optional[DenseTuple] = None
        pool: List[DenseTuple] = []
        pool_keys: Set[int] = set()
        for pos in range(n):
            singleton = (0.0, sigma_list[pos], scaled_list[pos], 1 << pos, None, None, pos, pos)
            arrays.append({singleton[2]: singleton})
            if best is None or _beats(singleton, best):
                best = singleton
            if collect_pool and singleton[2] > 0:
                _pool_add(pool, pool_keys, singleton, pool_size, _dense_mask, _dense_rank)
        best_length, best_weight, best_scaled = best[0], best[1], best[2]

        unprocessed = (1 << n) - 1
        visited_edges: Set[int] = set()
        visited = bytearray(n)
        edges_processed = 0
        edges_skipped = 0
        tuples_generated = 0
        max_tuples = self.max_tuples_per_node
        budget = instance.budget
        expired = False
        prune = instance.pruning and not collect_pool
        # Per-position upper bound on the largest scaled key stored in the
        # node's array (exact until an eviction, stale-high after — safe).
        max_scaled: List[int] = list(scaled_list) if prune else []

        # Traversal seeds: every node, relevant (weighted) nodes first, sorted
        # by (-σ_v, node id). The paper selects "any unprocessed node";
        # seeding with relevant nodes first makes the BFS fronts grow out of
        # the object clusters, which matches the paper's accuracy while being
        # deterministic for tests.
        start_order = np.lexsort((dense.ids, -dense.sigma)).tolist()
        for start_pos in start_order:
            if expired:
                break
            if visited[start_pos]:
                continue
            visited[start_pos] = 1
            queue: List[int] = [start_pos]
            head = 0
            while head < len(queue) and not expired:
                vi = queue[head]
                head += 1
                array_i = arrays[vi]
                slots = range(indptr[vi], indptr[vi + 1])
                if self.edge_order == "length":
                    slots = sorted(slots, key=lambda slot: lengths[slot])
                for slot in slots:
                    if budget is not None and budget.expired():
                        stats["budget_expired"] = 1.0
                        expired = True
                        break
                    vj = columns[slot]
                    key = vi * n + vj if vi <= vj else vj * n + vi
                    if key in visited_edges:
                        continue
                    visited_edges.add(key)
                    if not visited[vj]:
                        visited[vj] = 1
                        queue.append(vj)
                    edge_length = lengths[slot]
                    if edge_length > delta:
                        continue
                    if (
                        prune
                        and best_scaled > 0
                        and max_scaled[vi] == 0
                        and max_scaled[vj] == 0
                    ):
                        edges_skipped += 1
                        continue
                    edges_processed += 1
                    tuples_i = list(array_i.values())
                    tuples_j = list(arrays[vj].values())
                    if len(tuples_i) * len(tuples_j) >= self._PREFILTER_PAIRS:
                        lengths_i = np.fromiter(
                            (t[0] for t in tuples_i), np.float64, len(tuples_i)
                        )
                        lengths_j = np.fromiter(
                            (t[0] for t in tuples_j), np.float64, len(tuples_j)
                        )
                        rows, cols = np.nonzero(
                            (lengths_i[:, None] + lengths_j[None, :]) + edge_length
                            <= delta_eps
                        )
                        pairs = zip(rows.tolist(), cols.tolist())
                    else:
                        pairs = (
                            (a, b)
                            for a, tuple_a in enumerate(tuples_i)
                            for b, tuple_b in enumerate(tuples_j)
                            if tuple_a[0] + tuple_b[0] + edge_length <= delta_eps
                        )
                    # Fused generate/apply loop. The reference collects the
                    # feasible combinations first and then applies them in
                    # generation order; collection is side-effect free, so the
                    # fused loop performs the identical update sequence. A
                    # combined tuple is only built when something keeps it —
                    # the incumbent check, the top-k pool, or a dominance slot
                    # it wins; dominated combinations cost three scalar adds,
                    # two mask operations and a few dict probes.
                    for a, b in pairs:
                        tuple_i = tuples_i[a]
                        tuple_j = tuples_j[b]
                        mask_i = tuple_i[3]
                        mask_j = tuple_j[3]
                        if mask_i & mask_j:
                            continue
                        tuples_generated += 1
                        scaled = tuple_i[2] + tuple_j[2]
                        weight = tuple_i[1] + tuple_j[1]
                        length = tuple_i[0] + tuple_j[0] + edge_length
                        mask = mask_i | mask_j
                        # Inline RegionTuple.better_than on the scalar triple
                        # (tolerance shared with tuples.py via EPS).
                        if scaled != best_scaled:
                            better = scaled > best_scaled
                        elif abs(weight - best_weight) > EPS:
                            better = weight > best_weight
                        else:
                            better = length < best_length - EPS
                        combined: Optional[DenseTuple] = None
                        if better or collect_pool:
                            combined = (length, weight, scaled, mask, tuple_i, tuple_j, vi, vj)
                            if better:
                                best = combined
                                best_length, best_weight, best_scaled = length, weight, scaled
                            if collect_pool:
                                _pool_add(
                                    pool, pool_keys, combined, pool_size, _dense_mask, _dense_rank
                                )
                        # Members update independent arrays, so the walk order
                        # (highest position first) does not matter.
                        members = mask & unprocessed
                        while members:
                            member = members.bit_length() - 1
                            members ^= 1 << member
                            entries = arrays[member]
                            stored = entries.get(scaled)
                            if stored is None or length < stored[0] - EPS:
                                if combined is None:
                                    combined = (
                                        length, weight, scaled, mask, tuple_i, tuple_j, vi, vj
                                    )
                                entries[scaled] = combined
                                if prune and scaled > max_scaled[member]:
                                    max_scaled[member] = scaled
                                if max_tuples is not None and len(entries) > max_tuples:
                                    _keep_best(entries, max_tuples)
                unprocessed &= ~(1 << vi)
        stats["tuples_generated"] = float(tuples_generated)
        stats["edges_processed"] = float(edges_processed)
        stats["edges_skipped"] = float(edges_skipped)
        ids_list = dense.ids_list()
        ranked = _rank_distinct(pool, top_k, _dense_mask, _dense_rank)
        return (
            _materialise(best, ids_list),
            [_materialise(t, ids_list) for t in ranked],
            stats,
        )

# Identity and rank keys of a dense tuple: the top-k pool is deduplicated on
# the node set (the mask) and ranked by larger scaled weight, then larger
# weight, then shorter length.
_dense_mask = itemgetter(3)


def _dense_rank(t: DenseTuple) -> Tuple[int, float, float]:
    return (-t[2], -t[1], t[0])


def _beats(candidate: DenseTuple, incumbent: DenseTuple) -> bool:
    """:meth:`RegionTuple.better_than` on two dense tuples."""
    if candidate[2] != incumbent[2]:
        return candidate[2] > incumbent[2]
    if abs(candidate[1] - incumbent[1]) > EPS:
        return candidate[1] > incumbent[1]
    return candidate[0] < incumbent[0] - EPS


def _pool_add(
    pool: List[Any],
    pool_keys: Set[Any],
    candidate: Any,
    pool_size: int,
    identity: Callable[[Any], Any],
    rank: Callable[[Any], Tuple[int, float, float]],
) -> None:
    """Keep a bounded pool of the best distinct tuples seen (top-k support)."""
    key = identity(candidate)
    if key in pool_keys:
        return
    pool.append(candidate)
    pool_keys.add(key)
    if pool_size and len(pool) > 2 * pool_size:
        pool.sort(key=rank)
        del pool[pool_size:]
        pool_keys.clear()
        pool_keys.update(identity(t) for t in pool)


def _rank_distinct(
    pool: Sequence[Any],
    k: int,
    identity: Callable[[Any], Any],
    rank: Callable[[Any], Tuple[int, float, float]],
) -> List[Any]:
    """Return the best ``k`` distinct (by node set) tuples of the pool."""
    seen: Set[Any] = set()
    ranked: List[Any] = []
    for candidate in sorted(pool, key=rank):
        key = identity(candidate)
        if key in seen:
            continue
        seen.add(key)
        ranked.append(candidate)
        if len(ranked) >= k:
            break
    return ranked


def _keep_best(entries: Dict[int, DenseTuple], keep: int) -> None:
    """Evict from a dense tuple array: keep the ``keep`` largest keys.

    The survivors are re-inserted in descending key order, the order the
    reference twin's rebuild leaves behind.
    """
    survivors = sorted(entries.items(), reverse=True)[:keep]
    entries.clear()
    entries.update(survivors)


def _materialise(root: DenseTuple, ids: List[int]) -> RegionTuple:
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
        if current[4] is not None:
            stack.append(current[4])
            stack.append(current[5])
    built: Dict[int, Tuple[frozenset, frozenset]] = {}
    for current in reversed(order):
        if current[4] is None:
            sets = (frozenset({ids[current[6]]}), frozenset())
        else:
            nodes_i, edges_i = built.pop(id(current[4]))
            nodes_j, edges_j = built.pop(id(current[5]))
            edge = edge_key(ids[current[6]], ids[current[7]])
            sets = (nodes_i | nodes_j, (edges_i | edges_j) | {edge})
        built[id(current)] = sets
    nodes, edges = built[id(root)]
    return RegionTuple(root[0], root[1], root[2], nodes, edges)
