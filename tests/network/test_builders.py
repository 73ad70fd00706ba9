"""Tests for the synthetic network builders."""

from __future__ import annotations

import random

import pytest

from repro.exceptions import GraphError
from repro.network.builders import (
    grid_network,
    manhattan_network,
    paper_example_network,
    path_network,
    random_geometric_network,
    star_network,
)
from repro.network.stats import compute_stats


class TestGridNetwork:
    def test_shape_and_counts(self):
        network = grid_network(3, 4, spacing=10.0)
        assert network.num_nodes == 12
        # 3 rows x 4 cols grid: 3*3 horizontal + 2*4 vertical edges.
        assert network.num_edges == 3 * 3 + 2 * 4

    def test_spacing_controls_edge_lengths(self):
        network = grid_network(2, 2, spacing=50.0)
        assert network.edge_length(0, 1) == pytest.approx(50.0)
        assert network.edge_length(0, 2) == pytest.approx(50.0)

    def test_single_node_grid(self):
        network = grid_network(1, 1)
        assert network.num_nodes == 1
        assert network.num_edges == 0

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(GraphError):
            grid_network(0, 3)
        with pytest.raises(GraphError):
            grid_network(3, 3, spacing=0.0)

    def test_jitter_preserves_connectivity(self):
        network = grid_network(5, 5, spacing=100.0, jitter=30.0, rng=random.Random(1))
        assert network.is_connected()


class TestManhattanNetwork:
    def test_connected_and_deterministic(self):
        a = manhattan_network(10, 10, seed=5)
        b = manhattan_network(10, 10, seed=5)
        assert a.is_connected()
        assert a.num_nodes == b.num_nodes
        assert a.num_edges == b.num_edges

    def test_different_seed_changes_topology(self):
        a = manhattan_network(10, 10, seed=5)
        b = manhattan_network(10, 10, seed=6)
        assert {(e.u, e.v) for e in a.edges()} != {(e.u, e.v) for e in b.edges()}

    def test_realistic_degree(self):
        network = manhattan_network(15, 15, seed=2)
        stats = compute_stats(network)
        assert 2.0 <= stats.average_degree <= 4.5


class TestRandomGeometricNetwork:
    def test_connected_with_target_degree(self):
        network = random_geometric_network(200, extent=5000.0, target_degree=3.0, seed=9)
        assert network.num_nodes == 200
        assert network.is_connected()
        stats = compute_stats(network)
        assert 1.5 <= stats.average_degree <= 4.5

    def test_metric_edges(self):
        network = random_geometric_network(60, extent=1000.0, seed=4)
        for edge in network.edges():
            assert edge.length == pytest.approx(network.euclidean(edge.u, edge.v), rel=1e-6)

    def test_needs_at_least_one_node(self):
        with pytest.raises(GraphError):
            random_geometric_network(0)


class TestSimpleShapes:
    def test_star_network(self):
        network = star_network(5, edge_length=2.0)
        assert network.num_nodes == 6
        assert network.num_edges == 5
        assert sorted(network.neighbors(0)) == [1, 2, 3, 4, 5]
        assert all(network.edge_length(0, leaf) == 2.0 for leaf in range(1, 6))

    def test_path_network(self):
        network = path_network(4, edge_length=3.0)
        assert network.num_nodes == 4
        assert network.num_edges == 3
        assert network.total_length() == pytest.approx(9.0)

    def test_path_network_single_node(self):
        network = path_network(1)
        assert network.num_edges == 0

    def test_negative_sizes_rejected(self):
        with pytest.raises(GraphError):
            star_network(-1)
        with pytest.raises(GraphError):
            path_network(0)


class TestPaperExample:
    def test_matches_figure_2(self):
        network = paper_example_network()
        assert network.num_nodes == 6
        assert network.num_edges == 8
        # The optimal region's edges from the running example.
        assert network.edge_length(2, 6) == pytest.approx(1.5)
        assert network.edge_length(5, 6) == pytest.approx(2.8)
        assert network.edge_length(4, 5) == pytest.approx(1.6)
        assert network.edge_length(2, 6) + network.edge_length(5, 6) + network.edge_length(
            4, 5
        ) == pytest.approx(5.9)
