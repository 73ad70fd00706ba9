"""Spatial windowing of a road network to a query rectangle ``Q.Λ``.

Every LCMSR algorithm works on the sub-network induced by the nodes that fall inside
the query's rectangular region of interest. :class:`Rectangle` is the axis-aligned
window type used throughout the library (queries, MaxRS), and
:func:`induced_subgraph` extracts the windowed network.

The helpers are backend-polymorphic: handed a dict-backed
:class:`~repro.network.graph.RoadNetwork` they rebuild a dict-backed subgraph;
handed a frozen :class:`~repro.network.compact.CompactNetwork` snapshot they take
its vectorised ``window_view`` / array-filter path and return another snapshot.
The dispatch is duck-typed on the snapshot-only methods (``window_view`` /
``window_node_ids``) so this module does not import the compact backend (which
imports :mod:`repro.network.graph` itself).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Set, Tuple

from repro.exceptions import QueryError
from repro.network.graph import RoadNetwork

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.compact import GraphView


@dataclass(frozen=True)
class Rectangle:
    """An axis-aligned rectangle ``[min_x, max_x] x [min_y, max_y]`` in meters.

    Used for the query region of interest ``Q.Λ`` and for the MaxRS baseline's
    result rectangles.
    """

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __post_init__(self) -> None:
        if self.min_x > self.max_x or self.min_y > self.max_y:
            raise QueryError(
                f"degenerate rectangle: ({self.min_x}, {self.min_y}) .. ({self.max_x}, {self.max_y})"
            )

    @property
    def width(self) -> float:
        """Extent along the x axis."""
        return self.max_x - self.min_x

    @property
    def height(self) -> float:
        """Extent along the y axis."""
        return self.max_y - self.min_y

    @property
    def area(self) -> float:
        """Area of the rectangle (square meters)."""
        return self.width * self.height

    def center(self) -> Tuple[float, float]:
        """Return the rectangle's centre point."""
        return ((self.min_x + self.max_x) / 2.0, (self.min_y + self.max_y) / 2.0)

    def contains(self, x: float, y: float) -> bool:
        """Return ``True`` if the point ``(x, y)`` lies inside (borders included)."""
        return self.min_x <= x <= self.max_x and self.min_y <= y <= self.max_y

    def contains_points(self, xs, ys):
        """Vectorised :meth:`contains`: a boolean mask over coordinate arrays.

        The one window test every array path uses (network windows, shard
        extents, the σ_v pipeline's object and node masks), with the same four
        comparisons as :meth:`contains`, borders included.
        """
        return (xs >= self.min_x) & (xs <= self.max_x) & (ys >= self.min_y) & (ys <= self.max_y)

    def intersects(self, other: "Rectangle") -> bool:
        """Return ``True`` if the two rectangles overlap (touching counts)."""
        return not (
            other.min_x > self.max_x
            or other.max_x < self.min_x
            or other.min_y > self.max_y
            or other.max_y < self.min_y
        )

    def expanded(self, margin: float) -> "Rectangle":
        """Return a copy grown by ``margin`` on every side."""
        return Rectangle(
            self.min_x - margin, self.min_y - margin, self.max_x + margin, self.max_y + margin
        )

    @staticmethod
    def from_center(cx: float, cy: float, width: float, height: float) -> "Rectangle":
        """Build a rectangle of the given size centred at ``(cx, cy)``."""
        return Rectangle(cx - width / 2.0, cy - height / 2.0, cx + width / 2.0, cy + height / 2.0)

    @staticmethod
    def square_of_area(cx: float, cy: float, area: float) -> "Rectangle":
        """Build a square of the given area (m²) centred at ``(cx, cy)``.

        The paper specifies query regions by area (e.g. 100 km²); this helper converts
        that convention to a concrete window.
        """
        if area <= 0:
            raise QueryError(f"rectangle area must be positive, got {area}")
        side = area ** 0.5
        return Rectangle.from_center(cx, cy, side, side)


def nodes_in_rectangle(network: "GraphView", window: Rectangle) -> List[int]:
    """Return the identifiers of all nodes whose embedding lies inside ``window``.

    On a frozen snapshot the point test is one vectorised coordinate comparison;
    on a dict-backed network it is a Python scan over the nodes.
    """
    window_node_ids = getattr(network, "window_node_ids", None)
    if window_node_ids is not None:
        return window_node_ids(window)
    return [node.node_id for node in network.nodes() if window.contains(node.x, node.y)]


def induced_subgraph(network: "GraphView", window: Rectangle) -> "GraphView":
    """Return the sub-network induced by the nodes inside ``window``.

    Only edges with both endpoints inside the window are kept, matching the paper's
    length-constraint definition, which sums ``τ(vi, vj)`` over edges whose endpoints
    are both in ``Q.Λ``. The result uses the same backend as the input: a
    dict-backed network yields a dict-backed subgraph, a frozen snapshot yields a
    (vectorised, much cheaper) frozen window view.
    """
    window_view = getattr(network, "window_view", None)
    if window_view is not None:
        return window_view(window)
    return network.subgraph(nodes_in_rectangle(network, window))


def largest_component_subgraph(network: "GraphView") -> "GraphView":
    """Return the sub-network induced by the largest connected component.

    Windowing can split a connected road network into several pieces; some callers
    (e.g. workload generators that need routable areas) want only the dominant piece.
    The result uses the same backend as the input.
    """
    components = network.connected_components()
    if not components:
        return RoadNetwork()
    largest = max(components, key=len)
    # Feed ids in network iteration order (not set order) so the dict backend's
    # order-following subgraph stays aligned with a snapshot's subgraph.
    return network.subgraph([n for n in network.node_ids() if n in largest])
