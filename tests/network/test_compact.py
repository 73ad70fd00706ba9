"""Tests for the frozen CSR network snapshot."""

from __future__ import annotations

import pickle
import random

import numpy as np
import pytest

from repro.datasets.ny import build_ny_like
from repro.exceptions import EdgeNotFoundError, GraphError, NodeNotFoundError
from repro.network.builders import (
    grid_network,
    manhattan_network,
    random_geometric_network,
)
from repro.network.compact import CompactNetwork
from repro.network.graph import RoadNetwork
from repro.network.subgraph import Rectangle, induced_subgraph


@pytest.fixture
def small_network() -> RoadNetwork:
    """A 5-node network with non-uniform lengths and a degree-0 node."""
    network = RoadNetwork()
    network.add_node(10, 0.0, 0.0)
    network.add_node(20, 3.0, 0.0)
    network.add_node(30, 3.0, 4.0)
    network.add_node(40, 0.0, 4.0)
    network.add_node(50, 10.0, 10.0)  # isolated
    network.add_edge(10, 20, 3.0)
    network.add_edge(20, 30, 4.0)
    network.add_edge(30, 40, 3.0)
    network.add_edge(40, 10, 4.0)
    network.add_edge(10, 30, 5.0)
    return network


class TestRoundTrip:
    """Tier-1 smoke: freezing must round-trip nodes / edges / lengths exactly."""

    def test_small_network_round_trips_exactly(self, small_network):
        compact = CompactNetwork.from_network(small_network)
        assert compact.num_nodes == small_network.num_nodes
        assert compact.num_edges == small_network.num_edges
        assert list(compact.node_ids()) == list(small_network.node_ids())
        for node in small_network.nodes():
            assert compact.coords(node.node_id) == (node.x, node.y)
            assert list(compact.neighbor_items(node.node_id)) == list(
                small_network.neighbor_items(node.node_id)
            )
        assert {(e.u, e.v, e.length) for e in compact.edges()} == {
            (e.u, e.v, e.length) for e in small_network.edges()
        }

    def test_random_network_round_trips_exactly(self):
        network = random_geometric_network(num_nodes=150, extent=2000.0, seed=9)
        compact = CompactNetwork.from_network(network)
        thawed = compact.to_network()
        assert set(thawed.node_ids()) == set(network.node_ids())
        assert {(e.u, e.v, e.length) for e in thawed.edges()} == {
            (e.u, e.v, e.length) for e in network.edges()
        }
        for node_id in network.node_ids():
            assert compact.edge_length(
                node_id, next(iter(network.neighbors(node_id)))
            ) == network.edge_length(node_id, next(iter(network.neighbors(node_id))))

    def test_freeze_shorthand_and_idempotence(self, small_network):
        compact = CompactNetwork.from_network(small_network)
        assert isinstance(compact, CompactNetwork)
        assert CompactNetwork.from_network(compact) is compact

    def test_empty_network(self):
        compact = CompactNetwork.from_network(RoadNetwork())
        assert compact.num_nodes == 0
        assert compact.num_edges == 0
        assert compact.max_edge_length() == 0.0
        with pytest.raises(GraphError):
            compact.bounding_box()


def _cyclic_triangle() -> CompactNetwork:
    """Rows a:[b, c], b:[c, a], c:[a, b]: an order no add_edge sequence gives."""
    return CompactNetwork(
        ids=np.array([1, 2, 3]),
        xs=np.array([0.0, 1.0, 0.0]),
        ys=np.array([0.0, 0.0, 1.0]),
        indptr=np.array([0, 2, 4, 6]),
        indices=np.array([1, 2, 2, 0, 0, 1]),
        lengths=np.array([1.0, 1.0, 1.5, 1.0, 1.0, 1.5]),
    )


_THAW_CASES = {
    "manhattan": lambda: CompactNetwork.from_network(
        manhattan_network(12, 12, spacing=50.0, seed=5)
    ),
    "random-geometric": lambda: CompactNetwork.from_network(
        random_geometric_network(num_nodes=300, extent=3000.0, seed=4)
    ),
    "ny-16x16": lambda: CompactNetwork.from_network(
        build_ny_like(rows=16, cols=16, block_size=120.0, num_objects=100,
                      num_clusters=4, seed=3).network
    ),
    "cyclic-triangle": _cyclic_triangle,
}


class TestThaw:
    """The thaw replays the CSR, so freezing it again gives the same snapshot."""

    @pytest.mark.parametrize("case", sorted(_THAW_CASES))
    def test_thaw_then_freeze_is_the_identity(self, case):
        compact = _THAW_CASES[case]()
        thawed = compact.to_network()
        again = CompactNetwork.from_network(thawed)
        assert thawed.num_edges == compact.num_edges
        for ours, theirs in zip(
            compact.csr_node_arrays() + compact.csr_index_arrays(),
            again.csr_node_arrays() + again.csr_index_arrays(),
        ):
            assert ours.dtype == theirs.dtype
            assert np.array_equal(ours, theirs)


class TestProtocol:
    def test_contains_and_membership(self, small_network):
        compact = CompactNetwork.from_network(small_network)
        assert compact.contains(10) and 10 in compact
        assert not compact.contains(999) and 999 not in compact
        assert len(compact) == 5


class TestReadApi:
    def test_edge_lookups(self, small_network):
        compact = CompactNetwork.from_network(small_network)
        assert compact.edge_length(10, 30) == 5.0
        assert compact.edge_length(30, 10) == 5.0
        assert compact.has_edge(20, 30)
        assert not compact.has_edge(20, 40)
        with pytest.raises(EdgeNotFoundError):
            compact.edge_length(20, 40)
        with pytest.raises(EdgeNotFoundError):
            compact.edge_length(999, 10)

    def test_unknown_node_raises(self, small_network):
        compact = CompactNetwork.from_network(small_network)
        with pytest.raises(NodeNotFoundError):
            compact.coords(999)
        with pytest.raises(NodeNotFoundError):
            compact.neighbor_items(999)

    def test_length_aggregates_match_dict_backend(self, small_network):
        compact = CompactNetwork.from_network(small_network)
        assert compact.max_edge_length() == max(e.length for e in small_network.edges())
        assert compact.bounding_box() == small_network.bounding_box()


class TestWindowing:
    def test_window_view_equals_dict_induced_subgraph(self):
        network = random_geometric_network(num_nodes=300, extent=3000.0, seed=4)
        compact = CompactNetwork.from_network(network)
        rng = random.Random(17)
        for _ in range(10):
            cx, cy = rng.uniform(0, 3000), rng.uniform(0, 3000)
            side = rng.uniform(300, 1500)
            window = Rectangle.from_center(cx, cy, side, side)
            dict_sub = induced_subgraph(network, window)
            csr_sub = induced_subgraph(compact, window)
            assert isinstance(csr_sub, CompactNetwork)
            assert set(csr_sub.node_ids()) == set(dict_sub.node_ids())
            assert {(e.u, e.v, e.length) for e in csr_sub.edges()} == {
                (e.u, e.v, e.length) for e in dict_sub.edges()
            }

    def test_window_view_preserves_snapshot_order(self):
        network = grid_network(4, 4, spacing=1.0)
        compact = CompactNetwork.from_network(network)
        window = Rectangle(0.0, 0.0, 2.0, 2.0)
        view = compact.window_view(window)
        kept = [nid for nid in compact.node_ids() if nid in view]
        assert list(view.node_ids()) == kept

    def test_empty_window(self, small_network):
        compact = CompactNetwork.from_network(small_network)
        view = compact.window_view(Rectangle(100.0, 100.0, 101.0, 101.0))
        assert view.num_nodes == 0
        assert view.num_edges == 0

    def test_nested_window_views(self):
        network = grid_network(6, 6, spacing=1.0)
        compact = CompactNetwork.from_network(network)
        outer = compact.window_view(Rectangle(0.0, 0.0, 4.0, 4.0))
        inner = outer.window_view(Rectangle(0.0, 0.0, 2.0, 2.0))
        direct = compact.window_view(Rectangle(0.0, 0.0, 2.0, 2.0))
        assert set(inner.node_ids()) == set(direct.node_ids())
        assert {(e.u, e.v, e.length) for e in inner.edges()} == {
            (e.u, e.v, e.length) for e in direct.edges()
        }


class TestSnapshotSemantics:
    def test_pickle_round_trip(self, small_network):
        compact = CompactNetwork.from_network(small_network)
        clone = pickle.loads(pickle.dumps(compact))
        assert list(clone.node_ids()) == list(compact.node_ids())
        assert {(e.u, e.v, e.length) for e in clone.edges()} == {
            (e.u, e.v, e.length) for e in compact.edges()
        }
        assert list(clone.neighbor_items(10)) == list(compact.neighbor_items(10))

    def test_snapshot_is_decoupled_from_later_mutation(self, small_network):
        compact = CompactNetwork.from_network(small_network)
        small_network.add_node(60, 1.0, 1.0)
        small_network.add_edge(60, 10, 1.0)
        small_network.remove_edge(10, 30)
        assert 60 not in compact
        assert compact.has_edge(10, 30)
        assert compact.num_edges == 5

    def test_iteration_order_replicates_source(self):
        # Snapshot rows and per-row neighbour order must equal the source
        # network's iteration order — this is what makes traversal tie-breaking
        # backend-independent.
        network = RoadNetwork()
        for node_id in (5, 3, 9, 1):  # deliberately not sorted
            network.add_node(node_id, float(node_id), 0.0)
        network.add_edge(5, 9, 1.0)
        network.add_edge(5, 3, 1.0)
        network.add_edge(5, 1, 1.0)
        compact = CompactNetwork.from_network(network)
        assert list(compact.node_ids()) == [5, 3, 9, 1]
        assert [v for v, _ in compact.neighbor_items(5)] == [9, 3, 1]
