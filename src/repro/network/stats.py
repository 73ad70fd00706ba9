"""Descriptive statistics for road networks.

Used by the dataset builders to report that the synthetic stand-ins have the structural
properties (degree distribution, edge-length distribution, density) of the paper's NY
and USANW networks (the substitution is listed under "Deviations from the paper" in
``docs/ARCHITECTURE.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.network.graph import RoadNetwork


@dataclass(frozen=True)
class NetworkStats:
    """Summary statistics of a road network."""

    num_nodes: int
    num_edges: int
    average_degree: float
    min_edge_length: float
    max_edge_length: float
    mean_edge_length: float
    total_length: float
    num_components: int
    bounding_box_area: float

    def as_dict(self) -> Dict[str, float]:
        """Return the statistics as a plain dictionary (useful for reporting)."""
        return {
            "num_nodes": self.num_nodes,
            "num_edges": self.num_edges,
            "average_degree": self.average_degree,
            "min_edge_length": self.min_edge_length,
            "max_edge_length": self.max_edge_length,
            "mean_edge_length": self.mean_edge_length,
            "total_length": self.total_length,
            "num_components": self.num_components,
            "bounding_box_area": self.bounding_box_area,
        }


def compute_stats(network: RoadNetwork) -> NetworkStats:
    """Compute :class:`NetworkStats` for ``network``.

    An empty network yields all-zero statistics rather than raising, so reporting code
    can be applied uniformly to windowed sub-networks that happen to be empty.
    """
    if network.num_nodes == 0:
        return NetworkStats(0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0, 0.0)
    lengths: List[float] = [edge.length for edge in network.edges()]
    total_length = sum(lengths)
    if network.num_nodes > 0:
        try:
            min_x, min_y, max_x, max_y = network.bounding_box()
            bbox_area = (max_x - min_x) * (max_y - min_y)
        except Exception:  # pragma: no cover - defensive; bounding_box raises only when empty
            bbox_area = 0.0
    else:
        bbox_area = 0.0
    return NetworkStats(
        num_nodes=network.num_nodes,
        num_edges=network.num_edges,
        average_degree=2.0 * network.num_edges / network.num_nodes,
        min_edge_length=min(lengths) if lengths else 0.0,
        max_edge_length=max(lengths) if lengths else 0.0,
        mean_edge_length=(total_length / len(lengths)) if lengths else 0.0,
        total_length=total_length,
        num_components=len(network.connected_components()),
        bounding_box_area=bbox_area,
    )
