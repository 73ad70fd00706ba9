"""Node-weighted k-MST ("quota") solver used by APP (paper Section 4.2).

The paper treats Garg's 3-approximation for the node-weighted k minimum spanning tree
problem as a black box ``kMST(X)``: *return a tree whose total (scaled) node weight is
at least X, of length at most 3 times the optimum*. This module provides that solver.

Following Garg's construction, the solver is built on the Goemans–Williamson
prize-collecting Steiner tree primal–dual (:mod:`repro.core.pcst`) with a Lagrangian
search over the prize multiplier λ: larger λ makes the PCST collect more weight, so a
ladder of λ values yields a family of trees trading length against collected weight,
from which ``solve(X)`` picks the shortest tree meeting the quota and then trims
unnecessary leaves. Two engineering choices keep this practical in pure Python:

* the PCST runs on the *terminal metric closure* — the weighted (relevant) nodes only,
  connected by shortest-path distances in the query window — and the chosen closure
  edges are expanded back to real road-network paths afterwards (a standard Steiner
  reduction that can only shorten the expanded tree);
* the λ ladder is computed once per query and cached, so APP's binary search over X
  costs one scan per probe instead of one GW run per probe.

Both choices are listed under "Deviations from the paper" in
``docs/ARCHITECTURE.md`` and exercised by the ablation benchmark
``bench_ablation_kmst.py``.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.pcst import goemans_williamson_pcst
from repro.exceptions import SolverError
from repro.network.compact import CompactNetwork
from repro.network.graph import edge_key
from repro.network.shortest_path import dijkstra_positions

_DEFAULT_LAMBDA_FACTORS: Tuple[float, ...] = (
    0.0625, 0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0,
)


@dataclass(frozen=True)
class CandidateTree:
    """A tree in the road network produced by the quota solver.

    Attributes:
        nodes: The tree's node ids (terminals plus intermediate path nodes).
        edges: The tree's edges as normalised ``(u, v)`` pairs.
        length: Total edge length.
        weight: Total original node weight.
        scaled_weight: Total scaled node weight ŝ.
    """

    nodes: FrozenSet[int]
    edges: FrozenSet[Tuple[int, int]]
    length: float
    weight: float
    scaled_weight: int

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the tree."""
        return len(self.nodes)


class QuotaTreeSolver:
    """Answer ``kMST(X)`` queries over one problem instance.

    Args:
        graph: The query-window road network (the instance's graph). The
            metric closure runs the local-CSR Dijkstra over its positions —
            position-indexed tables, no global-id dict per run — and the lists
            it walks are built on this graph, so they live as long as it does.
        weights: Original node weights σ_v (only positive entries are terminals).
        scaled_weights: Scaled node weights σ̂_v from the :class:`ScalingContext`;
            in-window by construction, so every positively scaled node is a
            terminal without a per-key graph probe.
        closure_neighbors: How many nearest terminals each terminal is linked to in the
            metric-closure graph (the closure MST is always added on top, so the
            closure stays as connected as the underlying window graph allows).
        lambda_factors: Multipliers applied to the base λ to build the Lagrangian
            ladder; more factors give a finer length/weight trade-off at higher cost.
    """

    def __init__(
        self,
        graph: CompactNetwork,
        weights: Mapping[int, float],
        scaled_weights: Mapping[int, int],
        closure_neighbors: int = 8,
        lambda_factors: Sequence[float] = _DEFAULT_LAMBDA_FACTORS,
    ) -> None:
        self._graph = graph
        self._weights = dict(weights)
        self._scaled = {v: int(s) for v, s in scaled_weights.items()}
        self._terminals = sorted(v for v, s in self._scaled.items() if s > 0)
        self._closure_neighbors = max(1, closure_neighbors)
        self._lambda_factors = tuple(lambda_factors)
        # Lazily built state.
        self._closure_built = False
        self._closure_dist: Dict[int, Dict[int, float]] = {}
        self._closure_paths: Dict[Tuple[int, int], List[int]] = {}
        self._closure_edges: List[Tuple[int, int, float]] = []
        self._candidates: Optional[List[CandidateTree]] = None
        self.num_gw_runs = 0

    # ------------------------------------------------------------------ public API
    def total_scaled_weight(self) -> int:
        """The largest quota any tree could possibly satisfy."""
        return sum(self._scaled.get(v, 0) for v in self._terminals)

    def solve(self, quota: int) -> Optional[CandidateTree]:
        """Return a low-length tree whose scaled weight is at least ``quota``.

        Returns ``None`` when no tree can reach the quota (quota larger than the total
        scaled weight reachable in the window).
        """
        if quota <= 0:
            best_terminal = self._best_single_terminal()
            return best_terminal
        candidates = self._ensure_candidates()
        feasible = [c for c in candidates if c.scaled_weight >= quota]
        if not feasible:
            return None
        best = min(feasible, key=lambda c: (c.length, c.num_nodes))
        return self._trim_to_quota(best, quota)

    # ------------------------------------------------------------------ closure graph
    def _ensure_closure(self) -> None:
        if self._closure_built:
            return
        self._closure_built = True
        terminals = self._terminals
        terminal_set = set(terminals)
        if len(terminals) <= 1:
            return
        nearest: Dict[int, List[Tuple[float, int]]] = {}
        fill_path = self._collect_closure(terminal_set, nearest)

        edge_set: Set[Tuple[int, int]] = set()
        for source in terminals:
            for distance, target in nearest.get(source, []):
                key = edge_key(source, target)
                if key not in edge_set:
                    edge_set.add(key)
                    self._closure_edges.append((key[0], key[1], distance))

        # Add the closure MST so the closure graph is as connected as the window graph.
        for u, v, distance in self._closure_mst_edges():
            key = edge_key(u, v)
            if key not in edge_set:
                edge_set.add(key)
                self._closure_edges.append((key[0], key[1], distance))
            if key not in self._closure_paths:
                fill_path(u, v)

    def _collect_closure(
        self,
        terminal_set: Set[int],
        nearest: Dict[int, List[Tuple[float, int]]],
    ):
        """Per-terminal metric-closure probes through the local-CSR Dijkstra.

        Distances, parents and the touch order are identical to the id-keyed
        Dijkstra of the reference twin (same relaxation order, same id
        tie-breaks), so the recorded closure is too; what is saved is the
        per-run materialisation of full global-id dist/parent dicts (only
        terminal rows are converted back to ids).

        Returns the path-fill callback used for closure-MST edges whose paths
        were not recorded by the nearest-neighbour probes.
        """
        graph = self._graph
        position_of = graph.index_of
        ids_list = graph.adjacency_arrays()[4]
        terminal_positions = {position_of(t) for t in terminal_set}
        parents_by_pos: Dict[int, List[int]] = {}
        for source in self._terminals:
            source_pos = position_of(source)
            dist, parent, touched = dijkstra_positions(
                graph, source_pos, terminal_positions - {source_pos}
            )
            # Touch order replays the id-keyed dict's iteration order.
            reached = {
                ids_list[pos]: dist[pos]
                for pos in touched
                if pos in terminal_positions and pos != source_pos
            }
            self._closure_dist[source] = reached
            ranked = sorted((d, t) for t, d in reached.items())
            nearest[source] = ranked[: self._closure_neighbors]
            parents_by_pos[source] = parent
            for _, target in nearest[source]:
                key = edge_key(source, target)
                if key not in self._closure_paths:
                    self._closure_paths[key] = _reconstruct_path_positions(
                        parent, source_pos, position_of(target), ids_list
                    )

        def fill_path(u: int, v: int) -> None:
            u_pos, v_pos = position_of(u), position_of(v)
            parent = parents_by_pos.get(u)
            if parent is None or (parent[v_pos] < 0 and v != u):
                # The targeted Dijkstra above may have stopped before settling v.
                _, parent, _ = dijkstra_positions(graph, u_pos, {v_pos})
            self._closure_paths[edge_key(u, v)] = _reconstruct_path_positions(
                parent, u_pos, v_pos, ids_list
            )

        return fill_path

    def _closure_mst_edges(self) -> List[Tuple[int, int, float]]:
        """Prim's MST over the full terminal-to-terminal distance matrix."""
        terminals = self._terminals
        if len(terminals) <= 1:
            return []
        in_tree: Set[int] = {terminals[0]}
        mst: List[Tuple[int, int, float]] = []
        heap: List[Tuple[float, int, int]] = []
        for target, distance in self._closure_dist.get(terminals[0], {}).items():
            heapq.heappush(heap, (distance, terminals[0], target))
        while heap and len(in_tree) < len(terminals):
            distance, source, target = heapq.heappop(heap)
            if target in in_tree:
                continue
            in_tree.add(target)
            mst.append((source, target, distance))
            for nxt, d in self._closure_dist.get(target, {}).items():
                if nxt not in in_tree:
                    heapq.heappush(heap, (d, target, nxt))
        return mst

    # ------------------------------------------------------------------ λ ladder
    def _ensure_candidates(self) -> List[CandidateTree]:
        if self._candidates is not None:
            return self._candidates
        self._ensure_closure()
        candidates: List[CandidateTree] = []
        best_single = self._best_single_terminal()
        if best_single is not None:
            candidates.append(best_single)

        if len(self._terminals) > 1 and self._closure_edges:
            base_lambda = self._base_lambda()
            seen_signatures: Set[FrozenSet[int]] = set()
            for factor in self._lambda_factors:
                lam = base_lambda * factor
                prizes = {t: lam * self._scaled[t] for t in self._terminals}
                result = goemans_williamson_pcst(self._terminals, self._closure_edges, prizes)
                self.num_gw_runs += 1
                for tree_nodes, tree_edges in result.trees:
                    if len(tree_nodes) < 2:
                        continue
                    closure_pairs = [(u, v) for u, v, _ in tree_edges]
                    candidate = self._expand(closure_pairs)
                    if candidate is None:
                        continue
                    signature = candidate.nodes
                    if signature in seen_signatures:
                        continue
                    seen_signatures.add(signature)
                    candidates.append(candidate)
            # The "take everything reachable" candidate guarantees the maximum quota the
            # window supports is always achievable.
            all_pairs = [(u, v) for u, v, _ in self._closure_mst_edges()]
            if all_pairs:
                everything = self._expand(all_pairs)
                if everything is not None and everything.nodes not in seen_signatures:
                    candidates.append(everything)
        self._candidates = candidates
        return candidates

    def _base_lambda(self) -> float:
        lengths = [cost for _, _, cost in self._closure_edges]
        mean_cost = sum(lengths) / len(lengths) if lengths else 1.0
        scaled_values = [self._scaled[t] for t in self._terminals if self._scaled[t] > 0]
        mean_scaled = sum(scaled_values) / len(scaled_values) if scaled_values else 1.0
        if mean_scaled <= 0:
            return 1.0
        return max(mean_cost / mean_scaled, 1e-12)

    def _best_single_terminal(self) -> Optional[CandidateTree]:
        if not self._terminals:
            return None
        best = max(self._terminals, key=lambda v: (self._scaled.get(v, 0), self._weights.get(v, 0.0)))
        return CandidateTree(
            nodes=frozenset({best}),
            edges=frozenset(),
            length=0.0,
            weight=self._weights.get(best, 0.0),
            scaled_weight=self._scaled.get(best, 0),
        )

    # ------------------------------------------------------------------ expansion
    def _expand(self, closure_pairs: Sequence[Tuple[int, int]]) -> Optional[CandidateTree]:
        """Expand closure edges back to road-network paths and return a spanning tree."""
        node_set: Set[int] = set()
        edge_lengths: Dict[Tuple[int, int], float] = {}
        for u, v in closure_pairs:
            path = self._closure_paths.get(edge_key(u, v))
            if path is None:
                continue
            node_set.update(path)
            for a, b in zip(path, path[1:]):
                edge_lengths[edge_key(a, b)] = self._graph.edge_length(a, b)
        if not node_set:
            return None
        # BFS spanning tree of the expanded subgraph (paths may overlap / form cycles).
        adjacency: Dict[int, List[Tuple[int, float]]] = {v: [] for v in node_set}
        for (a, b), length in edge_lengths.items():
            adjacency[a].append((b, length))
            adjacency[b].append((a, length))
        start = next(iter(node_set))
        seen = {start}
        tree_edges: Set[Tuple[int, int]] = set()
        total_length = 0.0
        queue = [start]
        while queue:
            current = queue.pop()
            for neighbor, length in adjacency[current]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    tree_edges.add(edge_key(current, neighbor))
                    total_length += length
                    queue.append(neighbor)
        # Paths always come from one connected closure tree, so the BFS reaches all
        # nodes; guard anyway in case of disconnected closure components.
        nodes = frozenset(seen)
        weight = sum(self._weights.get(v, 0.0) for v in nodes)
        scaled = sum(self._scaled.get(v, 0) for v in nodes)
        return CandidateTree(
            nodes=nodes,
            edges=frozenset(tree_edges),
            length=total_length,
            weight=weight,
            scaled_weight=scaled,
        )

    # ------------------------------------------------------------------ trimming
    def _trim_to_quota(self, tree: CandidateTree, quota: int) -> CandidateTree:
        """Remove leaves while the tree still meets the quota, longest edges first."""
        if len(tree.nodes) <= 1:
            return tree
        adjacency: Dict[int, Dict[int, float]] = {v: {} for v in tree.nodes}
        for u, v in tree.edges:
            length = self._graph.edge_length(u, v)
            adjacency[u][v] = length
            adjacency[v][u] = length
        scaled_total = tree.scaled_weight
        weight_total = tree.weight
        length_total = tree.length
        removed: Set[int] = set()
        improved = True
        while improved:
            improved = False
            leaves = [
                v
                for v in adjacency
                if v not in removed and len([n for n in adjacency[v] if n not in removed]) == 1
            ]
            # Remove the leaf saving the most length, provided the quota still holds.
            leaves.sort(
                key=lambda v: next(
                    length for n, length in adjacency[v].items() if n not in removed
                ),
                reverse=True,
            )
            for leaf in leaves:
                leaf_scaled = self._scaled.get(leaf, 0)
                if scaled_total - leaf_scaled < quota:
                    continue
                neighbor, length = next(
                    (n, l) for n, l in adjacency[leaf].items() if n not in removed
                )
                removed.add(leaf)
                scaled_total -= leaf_scaled
                weight_total -= self._weights.get(leaf, 0.0)
                length_total -= length
                improved = True
                break
        if not removed:
            return tree
        kept_nodes = frozenset(v for v in tree.nodes if v not in removed)
        kept_edges = frozenset(
            (u, v) for u, v in tree.edges if u not in removed and v not in removed
        )
        return CandidateTree(
            nodes=kept_nodes,
            edges=kept_edges,
            length=length_total,
            weight=weight_total,
            scaled_weight=scaled_total,
        )


def _reconstruct_path_positions(
    parent: Sequence[int], source_pos: int, target_pos: int, ids: Sequence[int]
) -> List[int]:
    """Rebuild the node ids from ``source_pos`` to ``target_pos`` using Dijkstra parents."""
    if source_pos == target_pos:
        return [ids[source_pos]]
    if parent[target_pos] < 0:
        raise SolverError(
            f"no path from {ids[source_pos]} to {ids[target_pos]} in the query window"
        )
    path_positions = [target_pos]
    while path_positions[-1] != source_pos:
        path_positions.append(parent[path_positions[-1]])
    return [ids[pos] for pos in reversed(path_positions)]
