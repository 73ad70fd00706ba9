"""Tests for the Region type (connectivity, validation, lengths)."""

from __future__ import annotations

import pytest

from repro.core.region import Region
from repro.exceptions import RegionError
from repro.network.builders import grid_network, paper_example_network
from repro.network.graph import edge_key


def region_of(graph, nodes, edges) -> Region:
    """A region over ``nodes`` and ``edges`` whose length is its edges' total."""
    edge_set = frozenset(edge_key(u, v) for u, v in edges)
    length = sum(graph.edge_length(u, v) for u, v in edge_set)
    return Region(frozenset(nodes), edge_set, length, 0.0)


class TestConstruction:
    def test_tree_region_validates(self):
        graph = paper_example_network()
        region = region_of(graph, [2, 4, 5, 6], [(2, 6), (6, 5), (5, 4)])
        region.validate(graph)
        assert region.length == pytest.approx(5.9)
        assert region.num_nodes == 4
        assert region.num_edges == 3
        assert region.is_tree()

    def test_single_node_and_empty(self):
        single = Region(frozenset({7}), frozenset(), 0.0, 0.5)
        assert single.num_nodes == 1
        assert single.length == 0.0
        assert single.is_connected()
        empty = Region.empty()
        assert empty.is_empty
        assert empty.is_connected()
        assert empty.is_tree()

    def test_unknown_edge_rejected(self):
        graph = paper_example_network()
        with pytest.raises(RegionError):
            Region(frozenset({1, 3}), frozenset({(1, 3)}), 0.0, 0.0).validate(graph)

    def test_edge_with_endpoint_outside_region_rejected(self):
        graph = paper_example_network()
        with pytest.raises(RegionError):
            region_of(graph, [2], [(2, 6)]).validate(graph)

    def test_disconnected_region_rejected(self):
        graph = paper_example_network()
        region = region_of(graph, [1, 2, 4, 5], [(1, 2), (4, 5)])
        assert not region.is_connected()
        with pytest.raises(RegionError):
            region.validate(graph)


class TestPredicates:
    def test_satisfies_length_constraint(self):
        graph = paper_example_network()
        region = region_of(graph, [2, 6], [(2, 6)])
        assert region.satisfies(1.5)
        assert region.satisfies(2.0)
        assert not region.satisfies(1.0)

    def test_cycle_region_is_connected_but_not_tree(self):
        graph = grid_network(2, 2, spacing=1.0)
        region = region_of(graph, [0, 1, 2, 3], [(0, 1), (1, 3), (3, 2), (2, 0)])
        region.validate(graph)
        assert region.is_connected()
        assert not region.is_tree()

    def test_length_mismatch_detected(self):
        graph = paper_example_network()
        bad = Region(frozenset({2, 6}), frozenset({(2, 6)}), 99.0, 0.0)
        with pytest.raises(RegionError):
            bad.validate(graph)
