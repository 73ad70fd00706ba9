"""Road-network substrate.

This subpackage implements the paper's Definition 1: an undirected road-network graph
``G = (V, E, τ, λ)`` where every node carries a planar embedding and every edge a
non-negative road-segment length, plus the utilities the query algorithms need —
spatial windowing of the graph to the query rectangle ``Q.Λ``, shortest-path
computation, synthetic network builders and a plain-text (DIMACS-style) reader/writer.
"""

from repro.network.graph import RoadNetwork, Node, Edge
from repro.network.compact import CompactNetwork
from repro.network.builders import (
    grid_network,
    manhattan_network,
    random_geometric_network,
    star_network,
    path_network,
)
from repro.network.subgraph import induced_subgraph, Rectangle
from repro.network.shortest_path import dijkstra
from repro.network.projection import equirectangular_to_meters, haversine_meters
from repro.network.io import (
    load_dimacs,
    save_dimacs,
    load_edge_list,
    save_edge_list,
)
from repro.network.stats import NetworkStats, compute_stats

__all__ = [
    "RoadNetwork",
    "CompactNetwork",
    "Node",
    "Edge",
    "Rectangle",
    "grid_network",
    "manhattan_network",
    "random_geometric_network",
    "star_network",
    "path_network",
    "induced_subgraph",
    "dijkstra",
    "equirectangular_to_meters",
    "haversine_meters",
    "load_dimacs",
    "save_dimacs",
    "load_edge_list",
    "save_edge_list",
    "NetworkStats",
    "compute_stats",
]
