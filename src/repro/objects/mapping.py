"""Mapping geo-textual objects onto road-network nodes.

The paper maps every crawled object to its nearest node on the road network (Section
7.1) and notes the algorithms could also handle objects on edge interiors. We
reproduce the nearest-node mapping with a uniform-grid accelerated nearest-neighbour
search and keep, per node, the list of objects assigned to it — the structure every
solver uses to compute node weights for a query.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.exceptions import DatasetError, GraphError
from repro.network.graph import RoadNetwork
from repro.objects.corpus import ObjectCorpus
from repro.objects.geoobject import GeoTextualObject

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.compact import CompactNetwork


@dataclass
class NodeObjectMap:
    """The result of mapping a corpus onto a network.

    Attributes:
        node_to_objects: For each node id, the object ids mapped to that node (only
            nodes with at least one object appear).
        object_to_node: For each object id, the node id it was mapped to.
    """

    node_to_objects: Dict[int, List[int]] = field(default_factory=dict)
    object_to_node: Dict[int, int] = field(default_factory=dict)

    def objects_at(self, node_id: int) -> List[int]:
        """Return the object ids mapped to ``node_id`` (empty list if none)."""
        return self.node_to_objects.get(node_id, [])

    def node_of(self, object_id: int) -> int:
        """Return the node an object was mapped to; raises if the object is unmapped."""
        try:
            return self.object_to_node[object_id]
        except KeyError:
            raise DatasetError(f"object {object_id} has not been mapped to a node") from None

    def nodes_with_objects(self) -> List[int]:
        """Return the node ids that carry at least one object."""
        return list(self.node_to_objects.keys())

    @property
    def num_mapped(self) -> int:
        """Number of mapped objects."""
        return len(self.object_to_node)


class _PointGrid:
    """Uniform grid over node embeddings for exact nearest-node queries.

    The package's one nearest-node rule: builds, compactions and the delta
    overlay all map objects through it. For any finite probe, however far
    outside the network, :meth:`nearest` returns what the :func:`nearest_node`
    scan does.

    The grid cell size defaults to the average nearest-neighbour spacing estimate
    ``extent / sqrt(n)``, which keeps the expected number of candidates per probe
    constant for roughly uniform node distributions (true of road networks).
    """

    def __init__(self, network: RoadNetwork | CompactNetwork, cell_size: Optional[float] = None) -> None:
        if network.num_nodes == 0:
            raise GraphError("cannot build a point grid over an empty network")
        min_x, min_y, max_x, max_y = network.bounding_box()
        extent = max(max_x - min_x, max_y - min_y, 1e-9)
        if cell_size is None:
            cell_size = max(extent / max(1.0, math.sqrt(network.num_nodes)), 1e-9)
        self._cell = cell_size
        self._origin = (min_x, min_y)
        # Nodes occupy the cells (0, 0) .. _last.
        self._last = self._cell_of(max_x, max_y)
        self._cells: Dict[Tuple[int, int], List[Tuple[int, float, float]]] = defaultdict(list)
        for node in network.nodes():
            self._cells[self._cell_of(node.x, node.y)].append((node.node_id, node.x, node.y))

    def _cell_of(self, x: float, y: float) -> Tuple[int, int]:
        return (
            int((x - self._origin[0]) // self._cell),
            int((y - self._origin[1]) // self._cell),
        )

    def _ring(self, cx: int, cy: int, ring: int) -> List[Tuple[int, int]]:
        """The occupied cells at Chebyshev cell distance ``ring`` from ``(cx, cy)``."""
        last_x, last_y = self._last
        xs = range(max(cx - ring, 0), min(cx + ring, last_x) + 1)
        ys = range(max(cy - ring + 1, 0), min(cy + ring - 1, last_y) + 1)
        return [(x, y) for y in {cy - ring, cy + ring} if 0 <= y <= last_y for x in xs] + [
            (x, y) for x in {cx - ring, cx + ring} if 0 <= x <= last_x for y in ys
        ]

    def nearest(self, x: float, y: float) -> int:
        """Return the node id closest to ``(x, y)`` (ties broken by node id)."""
        cx, cy = self._cell_of(x, y)
        last_x, last_y = self._last
        best_id = -1
        best_dist = math.inf
        # Rings nearer than the occupied cells are empty; none lies beyond them.
        first = max(-cx, cx - last_x, -cy, cy - last_y, 0)
        for ring in range(first, max(cx, last_x - cx, cy, last_y - cy) + 1):
            # Every node in ring r or beyond is farther than r - 1 cells.
            bound = (ring - 1) * self._cell
            if bound * bound > best_dist:
                break
            for cell in self._ring(cx, cy, ring):
                for node_id, node_x, node_y in self._cells.get(cell, ()):
                    dist = (node_x - x) ** 2 + (node_y - y) ** 2
                    if dist < best_dist or (dist == best_dist and node_id < best_id):
                        best_dist = dist
                        best_id = node_id
        return best_id


def nearest_node(network: RoadNetwork, x: float, y: float) -> int:
    """Return the id of the network node nearest to ``(x, y)`` (linear scan).

    The reference the grid search is tested against. For repeated queries use
    :func:`map_objects_to_network`, which builds a grid once.
    """
    best_id = -1
    best_dist = math.inf
    for node in network.nodes():
        dist = (node.x - x) ** 2 + (node.y - y) ** 2
        if dist < best_dist or (dist == best_dist and node.node_id < best_id):
            best_dist = dist
            best_id = node.node_id
    if best_id < 0:
        raise GraphError("cannot find the nearest node in an empty network")
    return best_id


def map_objects_to_network(
    network: RoadNetwork | CompactNetwork,
    corpus: ObjectCorpus | Iterable[GeoTextualObject],
) -> NodeObjectMap:
    """Map every object in ``corpus`` to its nearest network node.

    Each object goes to the node :func:`nearest_node` would return — smallest
    squared euclidean distance, smallest node id on ties — however far outside
    the network it lies; a :class:`_PointGrid` built once finds it.

    Args:
        network: The road network or its snapshot (must be non-empty); both
            map every object to the same node.
        corpus: An :class:`ObjectCorpus` or any iterable of objects.

    Returns:
        A :class:`NodeObjectMap` recording the assignment in both directions.
    """
    grid = _PointGrid(network)
    mapping = NodeObjectMap()
    for obj in corpus:
        node_id = grid.nearest(obj.x, obj.y)
        mapping.object_to_node[obj.object_id] = node_id
        mapping.node_to_objects.setdefault(node_id, []).append(obj.object_id)
    return mapping
