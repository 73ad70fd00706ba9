"""Shortest-path routines over a frozen :class:`~repro.network.compact.CompactNetwork`.

The LCMSR algorithms themselves do not route, but two substrates do: the MaxRS
comparison in the paper's Section 7.5 derives a comparable length budget by computing
the minimum total length of road segments connecting the relevant objects inside a
rectangle (a Steiner-tree-ish measure we approximate with shortest-path joins), and
the object-to-node mapping occasionally needs network distances. A binary-heap
Dijkstra plus convenience wrappers cover both.

There is one Dijkstra: :func:`dijkstra_positions` walks the flat CSR lists with
list-indexed distance/parent tables, and :func:`dijkstra` is its id-keyed
wrapper. Every public routine accepts a
:class:`~repro.network.graph.RoadNetwork` too and freezes it once, at entry.
Neighbours relax in CSR row order (the source network's iteration order) and
heap ties break by node id.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.network.compact import CompactNetwork
from repro.network.graph import RoadNetwork


def dijkstra(
    network: CompactNetwork | RoadNetwork,
    source: int,
    targets: Optional[Set[int]] = None,
) -> Tuple[Dict[int, float], Dict[int, int]]:
    """Run Dijkstra's algorithm from ``source``.

    Args:
        network: The road network (a :class:`RoadNetwork` is frozen first).
        source: Source node identifier.
        targets: Optional set of node identifiers; the search stops early once all of
            them have been settled. A target absent from the network never
            settles, so the search then runs to exhaustion.

    Returns:
        A pair ``(dist, parent)`` where ``dist`` maps each reached node to its network
        distance from ``source``, in first-touch order, and ``parent`` maps it to its
        predecessor on a shortest path (the source has no parent entry).

    Raises:
        NodeNotFoundError: If ``source`` is not in the network.
    """
    network = CompactNetwork.from_network(network)
    source_index = network.index_of(source)
    target_indices: Optional[Set[int]] = None
    if targets is not None:
        # Targets absent from the network can never settle; they are mapped to
        # negative sentinels so the early-exit check keeps waiting on them.
        target_indices = set()
        sentinel = -1
        for t in targets:
            if network.contains(t):
                target_indices.add(network.index_of(t))
            else:
                target_indices.add(sentinel)
                sentinel -= 1
    dist, parent, touched = dijkstra_positions(network, source_index, target_indices)
    ids = network.adjacency_arrays()[4]
    dist_out: Dict[int, float] = {}
    parent_out: Dict[int, int] = {}
    for v in touched:
        dist_out[ids[v]] = dist[v]
        p = parent[v]
        if p >= 0:
            parent_out[ids[v]] = ids[p]
    return dist_out, parent_out


def dijkstra_positions(
    network: CompactNetwork,
    source_index: int,
    target_indices: Optional[Set[int]] = None,
) -> Tuple[List[float], List[int], List[int]]:
    """Local-CSR Dijkstra: everything in and out is a dense node *position*.

    This is the substrate the array-first consumers (the k-MST metric closure,
    the dense solver backends) use directly — no global-id dict is materialised
    per pop or per run. Distance, parent and settled tables are flat lists
    indexed by position; heap entries carry ``(dist, id, position)`` so ties
    order by node id.

    Args:
        network: The frozen CSR snapshot to traverse.
        source_index: Dense position of the source node.
        target_indices: Optional set of positions; the search stops early once
            all of them have been settled.

    Returns:
        ``(dist, parent, touched)`` where ``dist[p]`` is the distance of
        position ``p`` (``inf`` if never reached), ``parent[p]`` the
        predecessor position (-1 for the source / unreached nodes), and
        ``touched`` lists the reached positions in first-touch order (the
        iteration order of the dict the id-keyed wrapper builds).
    """
    indptr, positions, neighbor_ids, lengths, ids = network.adjacency_arrays()
    infinity = float("inf")
    num_nodes = len(ids)
    dist: List[float] = [infinity] * num_nodes
    parent: List[int] = [-1] * num_nodes
    settled: List[bool] = [False] * num_nodes
    dist[source_index] = 0.0
    touched: List[int] = [source_index]
    remaining = set(target_indices) if target_indices is not None else None
    heap: List[Tuple[float, int, int]] = [(0.0, ids[source_index], source_index)]
    while heap:
        d, _, u = heapq.heappop(heap)
        if settled[u]:
            continue
        settled[u] = True
        if remaining is not None:
            remaining.discard(u)
            if not remaining:
                break
        for slot in range(indptr[u], indptr[u + 1]):
            nd = d + lengths[slot]
            v = positions[slot]
            if nd < dist[v]:
                if dist[v] == infinity:
                    touched.append(v)
                dist[v] = nd
                parent[v] = u
                heapq.heappush(heap, (nd, neighbor_ids[slot], v))
    return dist, parent, touched


def steiner_tree_length(
    network: CompactNetwork | RoadNetwork, terminals: Iterable[int]
) -> float:
    """Approximate the length of a minimal tree connecting ``terminals``.

    Used by the Section 7.5 comparison: the paper derives the LCMSR length budget from
    "the minimum total length of the road segments connecting all relevant objects" in
    the MaxRS rectangle. We use the classic 2-approximation: build the metric closure
    over the terminals with Dijkstra, take its minimum spanning tree, and report that
    tree's length. Unreachable terminal pairs are skipped (each unreachable component
    contributes its own sub-tree).

    Returns:
        The approximate connecting length; ``0.0`` when fewer than two terminals.
    """
    network = CompactNetwork.from_network(network)  # once, not per terminal
    terminal_list = [t for t in dict.fromkeys(terminals) if t in network]
    if len(terminal_list) < 2:
        return 0.0
    # Metric closure restricted to the terminals.
    closure: Dict[int, Dict[int, float]] = {}
    terminal_set = set(terminal_list)
    for t in terminal_list:
        dist, _ = dijkstra(network, t, targets=set(terminal_set) - {t})
        closure[t] = {u: d for u, d in dist.items() if u in terminal_set and u != t}

    # Prim's MST over the (possibly disconnected) closure.
    total = 0.0
    unvisited = set(terminal_list)
    while unvisited:
        start = next(iter(unvisited))
        unvisited.discard(start)
        heap: List[Tuple[float, int]] = []
        for v, d in closure[start].items():
            if v in unvisited:
                heapq.heappush(heap, (d, v))
        in_tree = {start}
        while heap:
            d, v = heapq.heappop(heap)
            if v not in unvisited:
                continue
            unvisited.discard(v)
            in_tree.add(v)
            total += d
            for w, dw in closure[v].items():
                if w in unvisited:
                    heapq.heappush(heap, (dw, w))
    return total
