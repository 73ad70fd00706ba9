"""Unit tests for the road-network graph model."""

from __future__ import annotations

import math

import pytest

from repro.exceptions import EdgeNotFoundError, GraphError, NodeNotFoundError
from repro.network.graph import RoadNetwork, edge_key


def build_triangle() -> RoadNetwork:
    network = RoadNetwork()
    network.add_node(1, 0.0, 0.0)
    network.add_node(2, 3.0, 0.0)
    network.add_node(3, 0.0, 4.0)
    network.add_edge(1, 2, 3.0)
    network.add_edge(1, 3, 4.0)
    network.add_edge(2, 3, 5.0)
    return network


class TestNodeAndEdgeBasics:
    def test_add_and_lookup_node(self):
        network = RoadNetwork()
        node = network.add_node(7, 1.5, -2.5)
        assert node.coords() == (1.5, -2.5)
        assert 7 in network
        assert network.node(7).x == 1.5

    def test_duplicate_node_rejected(self):
        network = RoadNetwork()
        network.add_node(1, 0, 0)
        with pytest.raises(GraphError):
            network.add_node(1, 1, 1)

    def test_unknown_node_lookup_raises(self):
        network = RoadNetwork()
        with pytest.raises(NodeNotFoundError):
            network.node(99)

    def test_edge_requires_existing_endpoints(self):
        network = RoadNetwork()
        network.add_node(1, 0, 0)
        with pytest.raises(NodeNotFoundError):
            network.add_edge(1, 2, 1.0)

    def test_self_loop_rejected(self):
        network = RoadNetwork()
        network.add_node(1, 0, 0)
        with pytest.raises(GraphError):
            network.add_edge(1, 1, 1.0)

    @pytest.mark.parametrize(
        "length", [-1.0, math.nan, math.inf], ids=["negative", "nan", "inf"]
    )
    def test_invalid_length_rejected(self, length):
        network = RoadNetwork()
        network.add_node(1, 0, 0)
        network.add_node(2, 1, 0)
        with pytest.raises(GraphError, match=r"edge \(1, 2\)"):
            network.add_edge(1, 2, length)
        assert network.num_edges == 0

    def test_a_rejected_nan_leaves_the_edge_to_a_shorter_parallel_one(self):
        # A stored NaN would stay for good: no length compares below it.
        network = RoadNetwork()
        network.add_node(1, 0, 0)
        network.add_node(2, 1, 0)
        with pytest.raises(GraphError):
            network.add_edge(1, 2, math.nan)
        network.add_edge(1, 2, 3.0)
        assert network.edge_length(1, 2) == 3.0

    def test_default_length_is_euclidean(self):
        network = RoadNetwork()
        network.add_node(1, 0, 0)
        network.add_node(2, 3, 4)
        network.add_edge(1, 2)
        assert network.edge_length(1, 2) == pytest.approx(5.0)

    def test_parallel_edge_keeps_shorter_length(self):
        network = RoadNetwork()
        network.add_node(1, 0, 0)
        network.add_node(2, 1, 0)
        network.add_edge(1, 2, 5.0)
        network.add_edge(1, 2, 3.0)
        assert network.edge_length(1, 2) == 3.0
        assert network.num_edges == 1
        network.add_edge(2, 1, 7.0)
        assert network.edge_length(1, 2) == 3.0

    def test_edge_key_normalisation(self):
        assert edge_key(5, 2) == (2, 5)
        assert edge_key(2, 5) == (2, 5)


class TestTopologyQueries:
    def test_counts_and_lengths(self):
        network = build_triangle()
        assert network.num_nodes == 3
        assert network.num_edges == 3
        assert network.total_length() == pytest.approx(12.0)

    def test_neighbors_and_neighbor_items(self):
        network = build_triangle()
        assert sorted(network.neighbors(1)) == [2, 3]
        assert dict(network.neighbor_items(2)) == {1: 3.0, 3: 5.0}

    def test_coords_and_contains(self):
        network = build_triangle()
        assert 1 in network
        assert 99 not in network
        assert network.coords(1) == network.node(1).coords()

    def test_total_length_follows_add_edge(self):
        network = build_triangle()
        assert network.total_length() == pytest.approx(12.0)
        network.add_node(4, 100.0, 0.0)
        network.add_edge(1, 4, 50.0)
        assert network.total_length() == pytest.approx(62.0)

    def test_total_length_follows_remove_edge(self):
        network = build_triangle()
        assert network.total_length() == pytest.approx(12.0)
        network.remove_edge(2, 3)  # the length-5 edge
        assert network.total_length() == pytest.approx(7.0)

    def test_edges_reported_once(self):
        network = build_triangle()
        edges = list(network.edges())
        assert len(edges) == 3
        assert all(edge.u < edge.v for edge in edges)

    def test_remove_edge(self):
        network = build_triangle()
        network.remove_edge(1, 2)
        assert not network.has_edge(1, 2)
        assert network.num_edges == 2
        with pytest.raises(EdgeNotFoundError):
            network.edge_length(1, 2)

    def test_remove_missing_edge_raises(self):
        network = build_triangle()
        with pytest.raises(EdgeNotFoundError):
            network.remove_edge(1, 99)

    def test_bounding_box(self):
        network = build_triangle()
        assert network.bounding_box() == (0.0, 0.0, 3.0, 4.0)

    def test_bounding_box_empty_raises(self):
        with pytest.raises(GraphError):
            RoadNetwork().bounding_box()

    def test_euclidean_distance(self):
        network = build_triangle()
        assert network.euclidean(2, 3) == pytest.approx(5.0)


class TestTraversalAndCopies:
    def test_bfs_order_reaches_all_connected_nodes(self):
        network = build_triangle()
        order = network.bfs_order(1)
        assert set(order) == {1, 2, 3}
        assert order[0] == 1

    def test_connected_components(self):
        network = build_triangle()
        network.add_node(10, 50, 50)
        network.add_node(11, 51, 50)
        network.add_edge(10, 11, 1.0)
        components = network.connected_components()
        assert len(components) == 2
        assert {1, 2, 3} in components
        assert {10, 11} in components
        assert not network.is_connected()

    def test_empty_network_is_connected(self):
        assert RoadNetwork().is_connected()

