"""Goemans–Williamson primal–dual prize-collecting Steiner tree (PCST).

Garg's 3-approximation for the (node-weighted) k-MST problem — the black-box solver
the paper's APP algorithm relies on (Section 4.2, reference [8]) — is built on the
Goemans–Williamson general approximation technique for constrained forest problems
(reference [9]). This module implements the unrooted GW moat-growing algorithm for the
prize-collecting Steiner tree problem, plus the "strong pruning" dynamic program that
extracts the best subtree of a GW tree. :mod:`repro.core.kmst` wraps these into the
quota solver (``find a tree with node weight at least X of small length``) used by
APP's binary search.

The implementation works on an abstract undirected graph given as an edge list, so it
can be run both on road networks directly and on the terminal metric-closure graphs
the quota solver builds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.exceptions import SolverError

_EPS = 1e-12


@dataclass
class PCSTResult:
    """The output of the GW growth phase plus pruning.

    Attributes:
        trees: Each tree as a ``(nodes, edges)`` pair, where ``edges`` is a list of
            ``(u, v, cost)`` triples. Trees are node-disjoint.
        total_prize: Sum of prizes of nodes covered by the trees.
        total_cost: Sum of edge costs of the trees.
    """

    trees: List[Tuple[Set[int], List[Tuple[int, int, float]]]]
    total_prize: float
    total_cost: float

class _DisjointSet:
    """Union-find over integer node ids with path compression and union by size."""

    def __init__(self, nodes: Iterable[int]) -> None:
        self._parent: Dict[int, int] = {v: v for v in nodes}
        self._size: Dict[int, int] = {v: 1 for v in self._parent}

    def find(self, v: int) -> int:
        root = v
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[v] != root:
            self._parent[v], v = root, self._parent[v]
        return root

    def union(self, a: int, b: int) -> int:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]
        return ra


def goemans_williamson_pcst(
    nodes: Iterable[int],
    edges: Sequence[Tuple[int, int, float]],
    prizes: Mapping[int, float],
) -> PCSTResult:
    """Run unrooted GW moat growing followed by strong pruning.

    Args:
        nodes: The graph's node identifiers.
        edges: Undirected edges as ``(u, v, cost)`` triples with non-negative costs.
        prizes: Non-negative node prizes; missing nodes have prize 0.

    Returns:
        A :class:`PCSTResult` whose trees are the strong-pruned components of the GW
        forest. Single high-prize nodes appear as single-node trees.

    Raises:
        SolverError: On negative edge costs or prizes.
    """
    node_list = list(dict.fromkeys(nodes))
    if not node_list:
        return PCSTResult(trees=[], total_prize=0.0, total_cost=0.0)
    for u, v, cost in edges:
        if cost < 0:
            raise SolverError(f"negative edge cost on ({u}, {v}): {cost}")
    for v, prize in prizes.items():
        if prize < 0:
            raise SolverError(f"negative prize on node {v}: {prize}")

    components = _DisjointSet(node_list)
    # Per-component state, keyed by current representative.
    active: Dict[int, bool] = {}
    remaining: Dict[int, float] = {}
    members: Dict[int, List[int]] = {}
    for v in node_list:
        prize = float(prizes.get(v, 0.0))
        active[v] = prize > _EPS
        remaining[v] = prize
        members[v] = [v]
    potential: Dict[int, float] = {v: 0.0 for v in node_list}

    forest_edges: List[Tuple[int, int, float]] = []
    # The growth loop: every iteration either merges two components or deactivates one,
    # so it runs at most 2 * |V| times.
    max_iterations = 2 * len(node_list) + 4
    for _ in range(max_iterations):
        active_roots = [r for r, flag in active.items() if flag]
        if not active_roots:
            break

        # Next edge event.
        best_edge_dt = math.inf
        best_edge: Optional[Tuple[int, int, float]] = None
        for u, v, cost in edges:
            ru, rv = components.find(u), components.find(v)
            if ru == rv:
                continue
            rate = (1 if active.get(ru, False) else 0) + (1 if active.get(rv, False) else 0)
            if rate == 0:
                continue
            slack = cost - potential[u] - potential[v]
            dt = max(0.0, slack) / rate
            if dt < best_edge_dt - _EPS:
                best_edge_dt = dt
                best_edge = (u, v, cost)

        # Next deactivation event.
        best_deact_dt = math.inf
        best_deact_root: Optional[int] = None
        for root in active_roots:
            if remaining[root] < best_deact_dt - _EPS:
                best_deact_dt = remaining[root]
                best_deact_root = root

        dt = min(best_edge_dt, best_deact_dt)
        if not math.isfinite(dt):
            break

        # Advance time: grow every active moat by dt.
        if dt > 0:
            for root in active_roots:
                remaining[root] -= dt
                for member in members[root]:
                    potential[member] += dt

        if best_edge is not None and best_edge_dt <= best_deact_dt + _EPS:
            u, v, cost = best_edge
            ru, rv = components.find(u), components.find(v)
            if ru != rv:
                forest_edges.append((u, v, cost))
                new_root = components.union(ru, rv)
                other = rv if new_root == ru else ru
                merged_remaining = remaining[ru] + remaining[rv]
                merged_members = members[ru] + members[rv]
                merged_active = merged_remaining > _EPS
                for stale in (ru, rv):
                    active.pop(stale, None)
                    remaining.pop(stale, None)
                    members.pop(stale, None)
                active[new_root] = merged_active
                remaining[new_root] = merged_remaining
                members[new_root] = merged_members
        else:
            assert best_deact_root is not None
            active[best_deact_root] = False
            remaining[best_deact_root] = 0.0

    # Split the forest into its connected components and strong-prune each.
    trees = _forest_components(node_list, forest_edges)
    pruned: List[Tuple[Set[int], List[Tuple[int, int, float]]]] = []
    covered: Set[int] = set()
    for tree_nodes, tree_edges in trees:
        kept_nodes, kept_edges = strong_prune(tree_nodes, tree_edges, prizes)
        if kept_nodes:
            pruned.append((kept_nodes, kept_edges))
            covered |= kept_nodes
    # Isolated nodes with positive prize are valid single-node trees.
    for v in node_list:
        if v not in covered and prizes.get(v, 0.0) > _EPS:
            pruned.append(({v}, []))
            covered.add(v)

    total_prize = sum(prizes.get(v, 0.0) for tree in pruned for v in tree[0])
    total_cost = sum(cost for tree in pruned for _, _, cost in tree[1])
    return PCSTResult(trees=pruned, total_prize=total_prize, total_cost=total_cost)


def _forest_components(
    nodes: Sequence[int], forest_edges: Sequence[Tuple[int, int, float]]
) -> List[Tuple[Set[int], List[Tuple[int, int, float]]]]:
    """Group forest edges into connected components (isolated nodes are skipped)."""
    adjacency: Dict[int, List[Tuple[int, float]]] = {}
    for u, v, cost in forest_edges:
        adjacency.setdefault(u, []).append((v, cost))
        adjacency.setdefault(v, []).append((u, cost))
    seen: Set[int] = set()
    components: List[Tuple[Set[int], List[Tuple[int, int, float]]]] = []
    for start in adjacency:
        if start in seen:
            continue
        component_nodes: Set[int] = {start}
        component_edges: List[Tuple[int, int, float]] = []
        stack = [start]
        seen.add(start)
        while stack:
            current = stack.pop()
            for neighbor, cost in adjacency[current]:
                if (current, neighbor) < (neighbor, current):
                    component_edges.append((current, neighbor, cost))
                if neighbor not in seen:
                    seen.add(neighbor)
                    component_nodes.add(neighbor)
                    stack.append(neighbor)
        components.append((component_nodes, component_edges))
    return components


def strong_prune(
    tree_nodes: Set[int],
    tree_edges: Sequence[Tuple[int, int, float]],
    prizes: Mapping[int, float],
    root: Optional[int] = None,
) -> Tuple[Set[int], List[Tuple[int, int, float]]]:
    """Optimally prune a tree: keep the subtree maximising prize minus cost.

    This is the "strong pruning" dynamic program: rooted at the highest-prize node (or
    the given ``root``), a child subtree is kept only if its net value (collected prize
    minus the cost of reaching it) is positive. The result is connected and contains
    the root.

    Args:
        tree_nodes: Nodes of the tree.
        tree_edges: Edges of the tree as ``(u, v, cost)`` triples.
        prizes: Node prizes.
        root: Optional root; defaults to the node with the largest prize.

    Returns:
        ``(kept_nodes, kept_edges)``. If the tree is empty, returns empty sets.
    """
    if not tree_nodes:
        return (set(), [])
    adjacency: Dict[int, List[Tuple[int, float]]] = {v: [] for v in tree_nodes}
    for u, v, cost in tree_edges:
        adjacency[u].append((v, cost))
        adjacency[v].append((u, cost))
    if root is None:
        root = max(tree_nodes, key=lambda v: (prizes.get(v, 0.0), -v))

    # Iterative post-order DP to avoid recursion limits on path-like trees.
    parent: Dict[int, Optional[int]] = {root: None}
    parent_cost: Dict[int, float] = {}
    order: List[int] = []
    stack = [root]
    seen = {root}
    while stack:
        current = stack.pop()
        order.append(current)
        for neighbor, cost in adjacency[current]:
            if neighbor not in seen:
                seen.add(neighbor)
                parent[neighbor] = current
                parent_cost[neighbor] = cost
                stack.append(neighbor)

    net_value: Dict[int, float] = {}
    kept_children: Dict[int, List[int]] = {v: [] for v in tree_nodes}
    for v in reversed(order):
        value = float(prizes.get(v, 0.0))
        for neighbor, cost in adjacency[v]:
            if parent.get(neighbor) == v:
                child_gain = net_value[neighbor] - cost
                if child_gain > _EPS:
                    value += child_gain
                    kept_children[v].append(neighbor)
        net_value[v] = value

    kept_nodes: Set[int] = set()
    kept_edges: List[Tuple[int, int, float]] = []
    stack = [root]
    while stack:
        current = stack.pop()
        kept_nodes.add(current)
        for child in kept_children[current]:
            kept_edges.append((current, child, parent_cost[child]))
            stack.append(child)
    return (kept_nodes, kept_edges)
