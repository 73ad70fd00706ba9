"""Reference twins: the unpruned, dict-keyed solver loops, kept as a test oracle.

Greedy, TGEN and APP run on the position-indexed
:class:`~repro.core.dense.DenseInstance`. The loops they ran before it — over
``Dict[int, float]`` weights keyed by global node ids and the graph's
``neighbor_items`` — live on here unchanged, as *twins*: each subclasses its
solver and overrides only what the substrate replaced (Greedy's ``_grow``,
TGEN's ``_run``, APP's ``_prepare``, whose :class:`ReferenceQuotaTreeSolver`
runs the metric closure on the id-keyed
:func:`~repro.network.shortest_path.dijkstra`). ``ExactSolver`` has one loop;
its twin :class:`ReferenceExact` overrides only the decision to
branch-and-bound, so it always runs the exhaustive enumeration.

The twins never prune: TGEN's twin skips no edge, Greedy's never compacts its
candidates and Exact's enumerates every connected subset. They are the
references the bound-licensed skips of :mod:`repro.core.bounds` are held to,
and the one oracle of the compiled kernel (``kernel.c``) that runs TGEN's
traversal and Greedy's expansion: the kernel keeps their decisions, their
order and their float expressions, and its top-k pool the rules of
:func:`_pool_add` and :func:`_rank_distinct`.

:func:`twin` maps a solver to its twin with the same parameters; the parity
suites and the solver-time benchmarks compare the two on the same instances and
require byte-identical results. No serving module imports this one.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.app import APPSolver
from repro.core.exact import ExactSolver
from repro.core.greedy import GreedySolver
from repro.core.instance import ProblemInstance
from repro.core.kmst import QuotaTreeSolver
from repro.core.region import Region
from repro.core.scaling import ScalingContext
from repro.core.tgen import TGENSolver
from repro.core.tuples import RegionTuple, TupleArray
from repro.exceptions import SolverError
from repro.network.graph import edge_key
from repro.network.shortest_path import dijkstra


class ReferenceGreedy(GreedySolver):
    """:class:`~repro.core.greedy.GreedySolver` on the dict-keyed expansion loop."""

    def _grow(
        self,
        instance: ProblemInstance,
        excluded: Set[int],
        budget=None,
        stats: Optional[Dict[str, float]] = None,
    ) -> Optional[Region]:
        graph = instance.graph
        weights = instance.weights
        delta = instance.query.delta
        seeds = [
            (weight, node_id)
            for node_id, weight in weights.items()
            if node_id not in excluded and node_id in graph
        ]
        if not seeds:
            return None
        sigma_max = max(weight for weight, _ in seeds)
        if sigma_max <= 0:
            return None
        tau_max = graph.max_edge_length() or 1.0
        _, seed = max(seeds)

        region_order: List[int] = [seed]
        region_nodes: Set[int] = {seed}
        region_edges: Set[Tuple[int, int]] = set()
        total_length = 0.0

        while True:
            # Cooperative deadline: stop between expansion rounds and return
            # the region grown so far (budget=None skips the check entirely).
            if budget is not None and budget.expired():
                if stats is not None:
                    stats["budget_expired"] = 1.0
                break
            best_candidate: Optional[Tuple[float, int, int, float]] = None
            for member in region_order:
                for neighbor, edge_length in graph.neighbor_items(member):
                    if neighbor in region_nodes or neighbor in excluded:
                        continue
                    if total_length + edge_length > delta + 1e-12:
                        continue
                    weight = weights.get(neighbor, 0.0)
                    rank = (
                        self.mu * (1.0 - edge_length / tau_max)
                        + (1.0 - self.mu) * weight / sigma_max
                    )
                    candidate = (rank, neighbor, member, edge_length)
                    if best_candidate is None or candidate[0] > best_candidate[0] or (
                        abs(candidate[0] - best_candidate[0]) <= 1e-12
                        and candidate[1] < best_candidate[1]
                    ):
                        best_candidate = candidate
            if best_candidate is None:
                break
            _, neighbor, member, edge_length = best_candidate
            region_order.append(neighbor)
            region_nodes.add(neighbor)
            region_edges.add(edge_key(member, neighbor))
            total_length += edge_length

        weight_total = sum(weights.get(node_id, 0.0) for node_id in region_order)
        return Region(
            nodes=frozenset(region_nodes),
            edges=frozenset(region_edges),
            length=total_length,
            weight=weight_total,
        )


class ReferenceTGEN(TGENSolver):
    """:class:`~repro.core.tgen.TGENSolver` on the dict-keyed tuple loop."""

    def _run(
        self, instance: ProblemInstance, top_k: int = 0
    ) -> Tuple[Optional[RegionTuple], List[RegionTuple], Dict[str, float]]:
        """Run the traversal; return the best tuple, the best ``top_k`` distinct
        tuples (none when ``top_k`` is 0, which collects no pool) and the
        solver counters."""
        stats: Dict[str, float] = {"tuples_generated": 0.0, "edges_processed": 0.0}
        if not instance.has_relevant_nodes or instance.num_candidate_nodes == 0:
            return None, [], stats
        collect_pool = top_k > 0
        pool_size = max(64, 16 * top_k)
        graph = instance.graph
        delta = instance.query.delta
        scaling = ScalingContext.build(
            instance.weights, instance.num_candidate_nodes, self._effective_alpha(instance)
        )
        scaled = scaling.scale_weights(instance.weights)

        arrays: Dict[int, TupleArray] = {}
        best: Optional[RegionTuple] = None
        pool: List[RegionTuple] = []
        pool_keys: Set[frozenset] = set()
        for node_id in graph.node_ids():
            array = TupleArray()
            singleton = RegionTuple.singleton(
                node_id, instance.weights.get(node_id, 0.0), scaled.get(node_id, 0)
            )
            array.update(singleton)
            arrays[node_id] = array
            if singleton.better_than(best):
                best = singleton
            if collect_pool and singleton.scaled_weight > 0:
                _pool_add(pool, pool_keys, singleton, pool_size)

        processed_nodes: Set[int] = set()
        visited_edges: Set[Tuple[int, int]] = set()
        visited_nodes: Set[int] = set()
        budget = instance.budget
        expired = False

        for start_node in self._start_nodes(instance):
            if expired:
                break
            if start_node in visited_nodes:
                continue
            visited_nodes.add(start_node)
            queue: List[int] = [start_node]
            head = 0
            while head < len(queue) and not expired:
                vi = queue[head]
                head += 1
                for vj, edge_length in self._incident_edges(instance, vi):
                    # Cooperative deadline, polled once per edge: on expiry the
                    # traversal stops and the incumbent best-so-far is returned.
                    if budget is not None and budget.expired():
                        stats["budget_expired"] = 1.0
                        expired = True
                        break
                    key = (vi, vj) if vi <= vj else (vj, vi)
                    if key in visited_edges:
                        continue
                    visited_edges.add(key)
                    if vj not in visited_nodes:
                        visited_nodes.add(vj)
                        queue.append(vj)
                    if edge_length > delta:
                        continue
                    stats["edges_processed"] += 1
                    new_tuples: List[RegionTuple] = []
                    for tuple_i in arrays[vi].tuples():
                        for tuple_j in arrays[vj].tuples():
                            if tuple_i.length + tuple_j.length + edge_length > delta + 1e-12:
                                continue
                            if tuple_i.shares_nodes_with(tuple_j):
                                continue
                            combined = tuple_i.combine(tuple_j, vi, vj, edge_length)
                            new_tuples.append(combined)
                    stats["tuples_generated"] += len(new_tuples)
                    for combined in new_tuples:
                        if combined.better_than(best):
                            best = combined
                        if collect_pool:
                            _pool_add(pool, pool_keys, combined, pool_size)
                        for member in combined.nodes:
                            if member in processed_nodes:
                                continue
                            array = arrays[member]
                            array.update(combined)
                            if (
                                self.max_tuples_per_node is not None
                                and len(array) > self.max_tuples_per_node
                            ):
                                _evict_worst(array, self.max_tuples_per_node)
                processed_nodes.add(vi)
        return best, _rank_distinct(pool, top_k), stats

    def _start_nodes(self, instance: ProblemInstance) -> List[int]:
        """Traversal seeds: every node, relevant (weighted) nodes first."""
        weights = instance.weights
        return sorted(
            instance.graph.node_ids(), key=lambda v: (-weights.get(v, 0.0), v)
        )

    def _incident_edges(
        self, instance: ProblemInstance, node_id: int
    ) -> List[Tuple[int, float]]:
        items = list(instance.graph.neighbor_items(node_id))
        if self.edge_order == "length":
            items.sort(key=lambda pair: pair[1])
        return items


# The top-k pool is deduplicated on the node set and ranked by larger scaled
# weight, then larger weight, then shorter length.
def _region_rank(t: RegionTuple) -> Tuple[int, float, float]:
    return (-t.scaled_weight, -t.weight, t.length)


def _pool_add(
    pool: List[RegionTuple],
    pool_keys: Set[frozenset],
    candidate: RegionTuple,
    pool_size: int,
) -> None:
    """Keep a bounded pool of the best distinct tuples seen (top-k support)."""
    if candidate.nodes in pool_keys:
        return
    pool.append(candidate)
    pool_keys.add(candidate.nodes)
    if len(pool) > 2 * pool_size:
        pool.sort(key=_region_rank)
        del pool[pool_size:]
        pool_keys.clear()
        pool_keys.update(t.nodes for t in pool)


def _rank_distinct(pool: List[RegionTuple], k: int) -> List[RegionTuple]:
    """Return the best ``k`` distinct (by node set) tuples of the pool."""
    seen: Set[frozenset] = set()
    ranked: List[RegionTuple] = []
    for candidate in sorted(pool, key=_region_rank):
        if candidate.nodes in seen:
            continue
        seen.add(candidate.nodes)
        ranked.append(candidate)
        if len(ranked) >= k:
            break
    return ranked


def _evict_worst(array: TupleArray, keep: int) -> None:
    """Drop the lowest-scaled-weight tuples so the array holds at most ``keep`` entries."""
    tuples = sorted(array.tuples(), key=lambda t: (-t.scaled_weight, t.length))
    survivors = tuples[:keep]
    # Rebuild in place.
    array._entries.clear()  # noqa: SLF001 - intentional internal rebuild
    for entry in survivors:
        array.update(entry)


class ReferenceQuotaTreeSolver(QuotaTreeSolver):
    """:class:`~repro.core.kmst.QuotaTreeSolver` with the id-keyed metric closure."""

    def _collect_closure(
        self,
        terminal_set: Set[int],
        nearest: Dict[int, List[Tuple[float, int]]],
    ):
        """Per-terminal metric-closure probes through the id-keyed Dijkstra.

        Returns the path-fill callback used for closure-MST edges whose paths
        were not recorded by the nearest-neighbour probes.
        """
        parents: Dict[int, Dict[int, int]] = {}
        for source in self._terminals:
            dist, parent = dijkstra(
                self._graph, source, targets=set(terminal_set) - {source}
            )
            reached = {t: d for t, d in dist.items() if t in terminal_set and t != source}
            self._closure_dist[source] = reached
            ranked = sorted((d, t) for t, d in reached.items())
            nearest[source] = ranked[: self._closure_neighbors]
            parents[source] = parent
            for _, target in nearest[source]:
                key = edge_key(source, target)
                if key not in self._closure_paths:
                    self._closure_paths[key] = _reconstruct_path(parent, source, target)

        def fill_path(u: int, v: int) -> None:
            parent = parents.get(u)
            if parent is None or (v not in parent and v != u):
                # The targeted Dijkstra above may have stopped before settling v.
                _, parent = dijkstra(self._graph, u, targets={v})
            self._closure_paths[edge_key(u, v)] = _reconstruct_path(parent, u, v)

        return fill_path


def _reconstruct_path(parent: Dict[int, int], source: int, target: int) -> List[int]:
    """Rebuild the node sequence from ``source`` to ``target`` using Dijkstra parents."""
    if source == target:
        return [source]
    if target not in parent:
        raise SolverError(f"no path from {source} to {target} in the query window")
    path = [target]
    while path[-1] != source:
        path.append(parent[path[-1]])
    path.reverse()
    return path


class ReferenceAPP(APPSolver):
    """:class:`~repro.core.app.APPSolver` with dict scaling and the id-keyed closure."""

    def _prepare(
        self, instance: ProblemInstance
    ) -> Optional[Tuple[ScalingContext, Dict[int, int], QuotaTreeSolver]]:
        if not instance.has_relevant_nodes or instance.num_candidate_nodes == 0:
            return None
        scaling = ScalingContext.build(
            instance.weights, instance.num_candidate_nodes, self.alpha
        )
        scaled_weights = scaling.scale_weights(instance.weights)
        kwargs = {}
        if self.lambda_factors is not None:
            kwargs["lambda_factors"] = self.lambda_factors
        quota_solver = ReferenceQuotaTreeSolver(
            instance.graph,
            instance.weights,
            scaled_weights,
            closure_neighbors=self.closure_neighbors,
            **kwargs,
        )
        return scaling, scaled_weights, quota_solver


class ReferenceExact(ExactSolver):
    """:class:`~repro.core.exact.ExactSolver` on the exhaustive enumeration."""

    def _branch_and_bound(self, weights: Dict[int, float]) -> bool:
        return False


_TWINS = {
    GreedySolver: ReferenceGreedy,
    TGENSolver: ReferenceTGEN,
    APPSolver: ReferenceAPP,
    ExactSolver: ReferenceExact,
}


def twin(solver):
    """Return the reference twin of ``solver``, carrying the same parameters.

    Raises:
        TypeError: For an object that is not one of the four solvers.
    """
    twin_class = _TWINS.get(type(solver))
    if twin_class is None:
        raise TypeError(f"{type(solver).__name__} has no reference twin")
    reference = twin_class.__new__(twin_class)
    reference.__dict__.update(vars(solver))
    return reference
