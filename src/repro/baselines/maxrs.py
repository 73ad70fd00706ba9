"""Maximum range-sum (MaxRS) baseline over fixed-size rectangles.

The MaxRS query (Choi et al., PVLDB 2012; Tao et al., PVLDB 2013) finds the placement
of an axis-aligned ``width x height`` rectangle that maximises the total weight of the
points it covers. The paper uses it as the competitor in the Section 7.5 quality
study: the best 500 m × 500 m rectangle is retrieved, the minimum road length needed
to connect its relevant objects becomes the LCMSR length budget, and human annotators
compare the two answers. This module implements the exact MaxRS computation with a
corner-candidate sweep (optimal placements can always be translated so that the
rectangle's right and top edges touch points), which is exact and fast enough for the
window sizes in the benchmarks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import SolverError
from repro.network.subgraph import Rectangle


@dataclass(frozen=True)
class MaxRSResult:
    """The answer to a MaxRS query.

    Attributes:
        rectangle: The best placement (``None`` when there are no weighted points).
        weight: Total weight of the points covered by the rectangle.
        covered_ids: Identifiers of the covered points.
        runtime_seconds: Wall-clock solve time.
    """

    rectangle: Optional[Rectangle]
    weight: float
    covered_ids: Tuple[int, ...]
    runtime_seconds: float = 0.0


class MaxRSSolver:
    """Exact MaxRS over weighted points.

    Args:
        width: Rectangle width (the paper's comparison uses 500 m).
        height: Rectangle height.
    """

    name = "MaxRS"

    def __init__(self, width: float = 500.0, height: float = 500.0) -> None:
        if width <= 0 or height <= 0:
            raise SolverError(f"rectangle dimensions must be positive, got {width}x{height}")
        self.width = width
        self.height = height

    def solve(
        self,
        points: Mapping[int, Tuple[float, float]],
        weights: Mapping[int, float],
        window: Optional[Rectangle] = None,
    ) -> MaxRSResult:
        """Find the best rectangle placement.

        Args:
            points: ``point_id → (x, y)`` locations.
            weights: ``point_id → weight``; points with non-positive or missing weight
                are ignored.
            window: Optional region of interest; only points inside it are considered
                and the rectangle is conceptually placed inside it (the paper's
                comparison restricts both queries to the same ``Q.Λ``).

        Returns:
            The :class:`MaxRSResult`; when no weighted point exists the result has an
            empty cover and no rectangle.
        """
        start = time.perf_counter()
        items: List[Tuple[int, float, float, float]] = []
        for point_id, (x, y) in points.items():
            weight = weights.get(point_id, 0.0)
            if weight <= 0:
                continue
            if window is not None and not window.contains(x, y):
                continue
            items.append((point_id, x, y, weight))
        if not items:
            return MaxRSResult(None, 0.0, (), time.perf_counter() - start)

        best_weight = -1.0
        best_right = 0.0
        best_top = 0.0
        # A translate-to-touch argument shows some optimal rectangle has its right edge
        # at a point's x and its top edge at a point's y, so trying all such corner
        # candidates is exact.
        xs = sorted({x for _, x, _, _ in items})
        for right in xs:
            left = right - self.width
            in_strip = [(y, weight) for _, x, y, weight in items if left <= x <= right]
            if not in_strip:
                continue
            in_strip.sort()
            strip_ys = [y for y, _ in in_strip]
            strip_weights = [w for _, w in in_strip]
            # Sliding window over y: for each candidate top edge (a point's y), sum the
            # weights of points with y in [top - height, top].
            low_index = 0
            running = 0.0
            best_in_strip = -1.0
            best_strip_top = 0.0
            for high_index, top in enumerate(strip_ys):
                running += strip_weights[high_index]
                while strip_ys[low_index] < top - self.height - 1e-12:
                    running -= strip_weights[low_index]
                    low_index += 1
                if running > best_in_strip:
                    best_in_strip = running
                    best_strip_top = top
            if best_in_strip > best_weight + 1e-12:
                best_weight = best_in_strip
                best_right = right
                best_top = best_strip_top

        rectangle = Rectangle(
            best_right - self.width, best_top - self.height, best_right, best_top
        )
        covered = tuple(
            point_id
            for point_id, x, y, _ in items
            if rectangle.contains(x, y)
        )
        covered_weight = sum(weights[point_id] for point_id in covered)
        return MaxRSResult(rectangle, covered_weight, covered, time.perf_counter() - start)
