"""Road-network graph model (paper Definition 1).

A :class:`RoadNetwork` is an undirected graph whose nodes represent road junctions,
dead ends, or locations of geo-textual objects. Each node has a planar coordinate
``(x, y)`` (the paper's spatial mapping ``λ``) and each edge a non-negative length
(the paper's distance function ``τ``). It is the mutable *builder* of a network —
the dataset builders, DIMACS I/O and the network statistics use it — with
stable integer node identifiers, constant-time neighbour iteration and
edge-length lookup. Every build, compaction and query reads the network through
its frozen CSR snapshot, :class:`~repro.network.compact.CompactNetwork`, which
a :class:`RoadNetwork` argument is frozen into once, at entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.exceptions import EdgeNotFoundError, GraphError, NodeNotFoundError


@dataclass(frozen=True)
class Node:
    """A road-network node.

    Attributes:
        node_id: Stable integer identifier, unique within a network.
        x: Planar x coordinate in meters (after projection).
        y: Planar y coordinate in meters (after projection).
    """

    node_id: int
    x: float
    y: float

    def coords(self) -> Tuple[float, float]:
        """Return the ``(x, y)`` coordinate pair of the node."""
        return (self.x, self.y)


@dataclass(frozen=True)
class Edge:
    """An undirected road segment between two nodes.

    The endpoints are stored in normalised order (``u <= v``) so that an edge compares
    and hashes identically regardless of the direction it was added or traversed in.
    """

    u: int
    v: int
    length: float

    def __post_init__(self) -> None:
        if self.length < 0:
            raise GraphError(f"edge ({self.u}, {self.v}) has negative length {self.length}")
        if self.u == self.v:
            raise GraphError(f"self-loop on node {self.u} is not a road segment")

    @staticmethod
    def make(u: int, v: int, length: float) -> "Edge":
        """Create an edge with endpoints stored in normalised (sorted) order."""
        if u == v:
            raise GraphError(f"self-loop on node {u} is not a road segment")
        if length < 0:
            raise GraphError(f"edge ({u}, {v}) has negative length {length}")
        if u > v:
            u, v = v, u
        return Edge(u, v, length)

def edge_key(u: int, v: int) -> Tuple[int, int]:
    """Return the canonical (sorted) key for the undirected edge ``(u, v)``."""
    return (u, v) if u <= v else (v, u)


class RoadNetwork:
    """Undirected spatial road-network graph (paper Definition 1).

    The graph stores nodes keyed by integer identifiers, adjacency as a dictionary of
    neighbour → edge-length maps, and exposes the handful of operations used by the
    LCMSR algorithms. It intentionally mirrors a subset of the ``networkx`` API
    (``add_node`` / ``add_edge`` / ``neighbors``) so it is familiar, but avoids the
    per-edge attribute-dict overhead that would dominate runtime at benchmark scale.
    """

    def __init__(self) -> None:
        self._nodes: Dict[int, Node] = {}
        self._adj: Dict[int, Dict[int, float]] = {}
        self._num_edges: int = 0

    # ------------------------------------------------------------------ construction
    def add_node(self, node_id: int, x: float, y: float) -> Node:
        """Add a node with planar coordinates; replacing an existing node is an error."""
        if node_id in self._nodes:
            raise GraphError(f"node {node_id} already exists")
        node = Node(node_id, float(x), float(y))
        self._nodes[node_id] = node
        self._adj[node_id] = {}
        return node

    def add_edge(self, u: int, v: int, length: Optional[float] = None) -> Edge:
        """Add an undirected edge between existing nodes.

        If ``length`` is omitted, the Euclidean distance between the node embeddings is
        used, which matches how the synthetic builders create metric networks.
        Adding an edge twice keeps the shorter length (parallel road segments collapse
        to the best one, which is what every algorithm in the paper assumes).

        Raises:
            NodeNotFoundError: If an endpoint is not a node of the network.
            GraphError: On a self-loop, or a length that is negative, NaN or
                infinite.
        """
        if u not in self._nodes:
            raise NodeNotFoundError(u)
        if v not in self._nodes:
            raise NodeNotFoundError(v)
        if u == v:
            raise GraphError(f"self-loop on node {u} is not a road segment")
        if length is None:
            length = self.euclidean(u, v)
        length = float(length)
        # NaN fails every comparison, so it would pass a `length < 0` test,
        # and no parallel edge could replace it.
        if not (0.0 <= length < math.inf):
            raise GraphError(
                f"edge ({u}, {v}) has length {length}; a length must be finite "
                "and non-negative"
            )
        existing = self._adj[u].get(v)
        if existing is None:
            self._num_edges += 1
            self._adj[u][v] = length
            self._adj[v][u] = length
        elif length < existing:
            self._adj[u][v] = length
            self._adj[v][u] = length
        return Edge.make(u, v, self._adj[u][v])

    def remove_edge(self, u: int, v: int) -> None:
        """Remove the undirected edge ``(u, v)``; raises if it does not exist."""
        if u not in self._adj or v not in self._adj[u]:
            raise EdgeNotFoundError(u, v)
        del self._adj[u][v]
        del self._adj[v][u]
        self._num_edges -= 1

    # ------------------------------------------------------------------ inspection
    def __contains__(self, node_id: int) -> bool:
        return node_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the network."""
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges in the network."""
        return self._num_edges

    def node(self, node_id: int) -> Node:
        """Return the :class:`Node` for ``node_id``; raises :class:`NodeNotFoundError`."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise NodeNotFoundError(node_id) from None

    def coords(self, node_id: int) -> Tuple[float, float]:
        """Return the planar ``(x, y)`` embedding of ``node_id``."""
        return self.node(node_id).coords()

    def has_edge(self, u: int, v: int) -> bool:
        """Return ``True`` if the undirected edge ``(u, v)`` exists."""
        return u in self._adj and v in self._adj[u]

    def edge_length(self, u: int, v: int) -> float:
        """Return the road-segment length τ(u, v); raises if the edge does not exist."""
        try:
            return self._adj[u][v]
        except KeyError:
            raise EdgeNotFoundError(u, v) from None

    def nodes(self) -> Iterator[Node]:
        """Iterate over all nodes."""
        return iter(self._nodes.values())

    def node_ids(self) -> Iterator[int]:
        """Iterate over all node identifiers."""
        return iter(self._nodes.keys())

    def edges(self) -> Iterator[Edge]:
        """Iterate over all undirected edges, each reported once in normalised order."""
        for u, nbrs in self._adj.items():
            for v, length in nbrs.items():
                if u < v:
                    yield Edge(u, v, length)

    def neighbors(self, node_id: int) -> Iterator[int]:
        """Iterate over the neighbour identifiers of ``node_id``."""
        try:
            return iter(self._adj[node_id])
        except KeyError:
            raise NodeNotFoundError(node_id) from None

    def neighbor_items(self, node_id: int) -> Iterator[Tuple[int, float]]:
        """Iterate over ``(neighbor_id, edge_length)`` pairs of ``node_id``."""
        try:
            return iter(self._adj[node_id].items())
        except KeyError:
            raise NodeNotFoundError(node_id) from None

    def euclidean(self, u: int, v: int) -> float:
        """Return the Euclidean distance between the embeddings of two nodes."""
        a = self.node(u)
        b = self.node(v)
        return ((a.x - b.x) ** 2 + (a.y - b.y) ** 2) ** 0.5

    def total_length(self) -> float:
        """Return the sum of all road-segment lengths in the network."""
        total = 0.0
        for u, nbrs in self._adj.items():
            for v, length in nbrs.items():
                if u < v:
                    total += length
        return total

    def bounding_box(self) -> Tuple[float, float, float, float]:
        """Return ``(min_x, min_y, max_x, max_y)`` over all node embeddings."""
        if not self._nodes:
            raise GraphError("bounding_box of an empty network is undefined")
        xs = [node.x for node in self._nodes.values()]
        ys = [node.y for node in self._nodes.values()]
        return (min(xs), min(ys), max(xs), max(ys))

    # ------------------------------------------------------------------ traversal
    def bfs_order(self, start: int) -> List[int]:
        """Return node ids reachable from ``start`` in breadth-first order."""
        if start not in self._nodes:
            raise NodeNotFoundError(start)
        visited: Set[int] = {start}
        order: List[int] = [start]
        frontier: List[int] = [start]
        while frontier:
            next_frontier: List[int] = []
            for u in frontier:
                for v in self._adj[u]:
                    if v not in visited:
                        visited.add(v)
                        order.append(v)
                        next_frontier.append(v)
            frontier = next_frontier
        return order

    def connected_components(self) -> List[Set[int]]:
        """Return the connected components of the network as sets of node ids."""
        remaining: Set[int] = set(self._nodes)
        components: List[Set[int]] = []
        while remaining:
            start = next(iter(remaining))
            component = set(self.bfs_order(start))
            components.append(component)
            remaining -= component
        return components

    def is_connected(self) -> bool:
        """Return ``True`` if the network has one connected component (or is empty)."""
        if not self._nodes:
            return True
        return len(self.bfs_order(next(iter(self._nodes)))) == len(self._nodes)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"RoadNetwork(nodes={self.num_nodes}, edges={self.num_edges})"
