"""Spatial windowing of a road network to a query rectangle ``Q.Λ``.

Every LCMSR algorithm works on the sub-network induced by the nodes that fall inside
the query's rectangular region of interest. :class:`Rectangle` is the axis-aligned
window type used throughout the library (queries, MaxRS), and
:func:`induced_subgraph` extracts the windowed network from a frozen
:class:`~repro.network.compact.CompactNetwork` (a
:class:`~repro.network.graph.RoadNetwork` argument is frozen once, at entry).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from repro.exceptions import QueryError
from repro.network.compact import CompactNetwork
from repro.network.graph import RoadNetwork


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
        # NaN fails every comparison below, so finiteness is checked first.
        if not all(
            math.isfinite(bound)
            for bound in (self.min_x, self.min_y, self.max_x, self.max_y)
        ):
            raise QueryError(
                f"non-finite rectangle: ({self.min_x}, {self.min_y}) .. ({self.max_x}, {self.max_y})"
            )
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


def induced_subgraph(
    network: CompactNetwork | RoadNetwork, window: Rectangle
) -> CompactNetwork:
    """Return the sub-network induced by the nodes inside ``window``.

    Only edges with both endpoints inside the window are kept, matching the paper's
    length-constraint definition, which sums ``τ(vi, vj)`` over edges whose endpoints
    are both in ``Q.Λ``. The result is the snapshot's
    :meth:`~repro.network.compact.CompactNetwork.window_view`.
    """
    return CompactNetwork.from_network(network).window_view(window)
