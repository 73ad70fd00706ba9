"""Tests for rectangles and spatial windowing."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from repro.exceptions import QueryError
from repro.network.builders import grid_network
from repro.network.subgraph import Rectangle, induced_subgraph


class TestRectangle:
    def test_basic_geometry(self):
        rect = Rectangle(0, 0, 4, 3)
        assert rect.width == 4
        assert rect.height == 3
        assert rect.area == 12
        assert rect.center() == (2.0, 1.5)

    def test_degenerate_rejected(self):
        with pytest.raises(QueryError):
            Rectangle(5, 0, 1, 1)

    @pytest.mark.parametrize(
        "bounds",
        [
            (math.nan, 0.0, 1.0, 1.0),
            (0.0, math.nan, 1.0, 1.0),
            (0.0, 0.0, math.nan, 1.0),
            (0.0, 0.0, 1.0, math.nan),
            (-math.inf, 0.0, 1.0, 1.0),
            (0.0, 0.0, math.inf, 1.0),
        ],
        ids=["nan-min-x", "nan-min-y", "nan-max-x", "nan-max-y", "-inf", "+inf"],
    )
    def test_non_finite_rejected(self, bounds):
        # NaN fails both ordering comparisons, and an infinite bound passes
        # them, so neither is caught as a degenerate rectangle.
        with pytest.raises(QueryError, match="non-finite"):
            Rectangle(*bounds)

    def test_square_of_nan_area_rejected(self):
        with pytest.raises(QueryError):
            Rectangle.square_of_area(0.0, 0.0, math.nan)

    def test_contains_includes_borders(self):
        rect = Rectangle(0, 0, 2, 2)
        assert rect.contains(0, 0)
        assert rect.contains(2, 2)
        assert not rect.contains(2.001, 1)

    def test_expanded(self):
        rect = Rectangle(1, 1, 2, 2).expanded(1.0)
        assert (rect.min_x, rect.min_y, rect.max_x, rect.max_y) == (0, 0, 3, 3)

    def test_from_center(self):
        rect = Rectangle.from_center(10, 10, 4, 2)
        assert (rect.min_x, rect.max_x) == (8, 12)
        assert (rect.min_y, rect.max_y) == (9, 11)

    def test_square_of_area(self):
        rect = Rectangle.square_of_area(0, 0, 100.0)
        assert rect.width == pytest.approx(10.0)
        assert rect.area == pytest.approx(100.0)

    def test_square_of_area_rejects_non_positive(self):
        with pytest.raises(QueryError):
            Rectangle.square_of_area(0, 0, 0.0)

    @given(
        cx=st.floats(-1e4, 1e4),
        cy=st.floats(-1e4, 1e4),
        area=st.floats(1e-3, 1e8),
    )
    def test_square_of_area_property(self, cx, cy, area):
        rect = Rectangle.square_of_area(cx, cy, area)
        assert rect.area == pytest.approx(area, rel=1e-9)
        assert rect.contains(cx, cy)


class TestWindowing:
    def test_induced_subgraph_keeps_internal_edges_only(self):
        network = grid_network(4, 4, spacing=10.0)
        window = Rectangle(0, 0, 15, 15)
        sub = induced_subgraph(network, window)
        assert sub.num_nodes == 4
        assert sub.num_edges == 4  # a 2x2 block has 4 internal edges

    def test_empty_window(self):
        network = grid_network(3, 3, spacing=10.0)
        sub = induced_subgraph(network, Rectangle(100, 100, 110, 110))
        assert sub.num_nodes == 0
        assert sub.num_edges == 0

    def test_window_covering_everything(self):
        network = grid_network(3, 3, spacing=10.0)
        sub = induced_subgraph(network, Rectangle(-1, -1, 100, 100))
        assert sub.num_nodes == network.num_nodes
        assert sub.num_edges == network.num_edges
