"""Tests for Dijkstra, path reconstruction and the Steiner-length approximation."""

from __future__ import annotations

import random

import pytest

from repro.exceptions import NodeNotFoundError
from repro.network.builders import grid_network, path_network, random_geometric_network
from repro.network.compact import CompactNetwork
from repro.network.graph import RoadNetwork
from repro.network.shortest_path import dijkstra, steiner_tree_length


def both_backends(network: RoadNetwork):
    """The same graph under both backends (dict and frozen CSR)."""
    return [network, CompactNetwork.from_network(network)]


@pytest.fixture
def weighted_square() -> RoadNetwork:
    """A square with one expensive side plus a diagonal shortcut."""
    network = RoadNetwork()
    for node_id, (x, y) in enumerate([(0, 0), (1, 0), (1, 1), (0, 1)]):
        network.add_node(node_id, float(x), float(y))
    network.add_edge(0, 1, 1.0)
    network.add_edge(1, 2, 1.0)
    network.add_edge(2, 3, 1.0)
    network.add_edge(3, 0, 10.0)
    network.add_edge(0, 2, 2.5)
    return network


class TestDijkstra:
    def test_distances_and_parents(self, weighted_square):
        dist, parent = dijkstra(weighted_square, 0)
        assert dist[0] == 0.0
        assert dist[1] == 1.0
        assert dist[2] == 2.0
        assert dist[3] == 3.0
        assert parent[3] == 2

    def test_unknown_source_raises(self, weighted_square):
        with pytest.raises(NodeNotFoundError):
            dijkstra(weighted_square, 77)

    def test_early_termination_with_targets(self, weighted_square):
        dist, _ = dijkstra(weighted_square, 0, targets={1})
        assert dist[1] == 1.0

    def test_grid_distance_matches_manhattan(self):
        network = grid_network(5, 5, spacing=10.0)
        dist, _ = dijkstra(network, 0, targets={24})
        assert dist[24] == pytest.approx(80.0)


class TestDijkstraEdgeCases:
    """Early exit, disconnection — on both backends."""

    def test_early_exit_when_all_targets_settle(self):
        # With target {1} settled at distance 2, the search must stop before
        # relaxing anything beyond node 2's neighbours: node 4 stays unvisited.
        network = path_network(6, edge_length=2.0)
        for graph in both_backends(network):
            dist, _ = dijkstra(graph, 0, targets={1})
            assert dist[1] == 2.0
            assert 4 not in dist and 5 not in dist

    def test_unknown_target_never_settles_no_early_exit(self):
        # A target id missing from the graph can never settle; the search then
        # degrades to a full exploration rather than stopping early or raising.
        network = path_network(4, edge_length=1.0)
        for graph in both_backends(network):
            dist, _ = dijkstra(graph, 0, targets={999})
            assert set(dist) == {0, 1, 2, 3}

    def test_disconnected_source_reaches_only_its_component(self):
        network = path_network(3, edge_length=1.0)
        network.add_node(10, 50.0, 0.0)
        network.add_node(11, 51.0, 0.0)
        network.add_edge(10, 11, 1.0)
        for graph in both_backends(network):
            dist, parent = dijkstra(graph, 10)
            assert dist == {10: 0.0, 11: 1.0}
            assert parent == {11: 10}

    def test_isolated_source(self):
        network = RoadNetwork()
        network.add_node(7, 0.0, 0.0)
        for graph in both_backends(network):
            dist, parent = dijkstra(graph, 7)
            assert dist == {7: 0.0}
            assert parent == {}

    def test_source_is_its_own_target(self):
        network = path_network(4, edge_length=1.0)
        for graph in both_backends(network):
            dist, parent = dijkstra(graph, 2, targets={2})
            assert dist == {2: 0.0}
            assert parent == {}

    def test_csr_unknown_source_raises(self):
        graph = CompactNetwork.from_network(path_network(3, edge_length=1.0))
        with pytest.raises(NodeNotFoundError):
            dijkstra(graph, 77)


class TestDijkstraBackendParity:
    """Property-style check: dict and CSR Dijkstra agree exactly on random graphs."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_random_graph_parity(self, seed):
        rng = random.Random(seed)
        network = random_geometric_network(
            num_nodes=rng.randint(40, 120), extent=1000.0, seed=seed
        )
        compact = CompactNetwork.from_network(network)
        node_ids = list(network.node_ids())
        for _ in range(8):
            source = rng.choice(node_ids)
            targets = (
                set(rng.sample(node_ids, rng.randint(1, min(5, len(node_ids)))))
                if rng.random() < 0.5
                else None
            )
            dist_d, parent_d = dijkstra(network, source, targets=targets)
            dist_c, parent_c = dijkstra(compact, source, targets=targets)
            # Not merely equal distances: the parent trees must match too, so
            # downstream path reconstruction is backend-independent.
            assert dist_d == dist_c
            assert parent_d == parent_c

    @pytest.mark.parametrize("seed", [11, 12])
    def test_uniform_length_grid_parity(self, seed):
        # Grids maximise shortest-path ties; parents must still agree because both
        # backends relax neighbours in the same order and tie-break heaps by id.
        network = grid_network(7, 9, spacing=5.0)
        compact = CompactNetwork.from_network(network)
        rng = random.Random(seed)
        for _ in range(5):
            source = rng.randrange(7 * 9)
            dist_d, parent_d = dijkstra(network, source)
            dist_c, parent_c = dijkstra(compact, source)
            assert dist_d == dist_c
            assert parent_d == parent_c


class TestSteinerLength:
    def test_fewer_than_two_terminals_is_zero(self, weighted_square):
        assert steiner_tree_length(weighted_square, []) == 0.0
        assert steiner_tree_length(weighted_square, [0]) == 0.0

    def test_pair_equals_shortest_path(self, weighted_square):
        assert steiner_tree_length(weighted_square, [0, 3]) == pytest.approx(3.0)

    def test_three_terminals_on_a_line(self):
        network = path_network(5, edge_length=1.0)
        assert steiner_tree_length(network, [0, 2, 4]) == pytest.approx(4.0)

    def test_duplicates_and_unknown_terminals_ignored(self, weighted_square):
        assert steiner_tree_length(weighted_square, [0, 0, 3, 99]) == pytest.approx(3.0)

    def test_disconnected_terminals_counted_per_component(self):
        network = path_network(3, edge_length=1.0)
        network.add_node(10, 100, 0)
        network.add_node(11, 101, 0)
        network.add_edge(10, 11, 1.0)
        # Two separate components: 0-2 (length 2) and 10-11 (length 1).
        assert steiner_tree_length(network, [0, 2, 10, 11]) == pytest.approx(3.0)
