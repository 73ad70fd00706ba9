"""Round-trip tests for the dense problem-instance substrate.

The substrate (:class:`repro.core.dense.DenseInstance`) is a pure representation
change, so these tests pin the three contracts everything downstream relies on:

* **Renumbering** — global ↔ local id mapping is a bijection that follows the
  window graph's iteration order, and the CSR arrays are shared (not copied)
  when the source is a frozen snapshot.
* **Dict-order replay** — ``weights_dict()`` re-materialises a dict whose items
  (values *and* iteration order) equal the source weight dict, and the
  aggregates (σmax, total weight) are bit-equal to the reference computations.
* **Pickle** — a substrate round-trips through pickle into an equivalent one
  (same arrays, same dict view, same solver results).
"""

from __future__ import annotations

import pickle
import random

import numpy as np
import pytest

from repro.core.dense import DenseInstance
from repro.core.greedy import GreedySolver
from repro.core.instance import build_instance
from repro.core.query import LCMSRQuery
from repro.core.reference import twin
from repro.core.tgen import TGENSolver
from repro.exceptions import QueryError
from repro.network.builders import random_geometric_network
from repro.network.compact import CompactNetwork
from repro.network.subgraph import Rectangle

SEEDS = [5, 19]


def _weights_for(network, seed: int):
    rng = random.Random(seed)
    return {
        node_id: round(rng.uniform(0.1, 5.0), 3)
        for node_id in network.node_ids()
        if rng.random() < 0.6
    }


@pytest.fixture(params=SEEDS)
def window_setup(request):
    seed = request.param
    network = random_geometric_network(num_nodes=100, extent=2000.0, seed=seed)
    frozen = CompactNetwork.from_network(network)
    window = frozen.window_view(Rectangle(200.0, 200.0, 1800.0, 1800.0))
    window_ids = set(window.node_ids())
    weights = {
        node_id: weight
        for node_id, weight in _weights_for(network, seed).items()
        if node_id in window_ids
    }
    return window, weights


def _position_of(dense):
    return {node_id: position for position, node_id in enumerate(dense.ids.tolist())}


class TestRenumbering:
    def test_local_positions_follow_window_order(self, window_setup):
        window, weights = window_setup
        dense = DenseInstance.from_graph(window, weights)
        assert dense.ids.tolist() == list(window.node_ids())
        assert dense.num_nodes == window.num_nodes
        assert dense.indices.shape[0] == 2 * window.num_edges
        for node_id, position in _position_of(dense).items():
            assert window.index_of(node_id) == position

    def test_csr_arrays_are_shared_not_copied(self, window_setup):
        window, weights = window_setup
        dense = DenseInstance.from_graph(window, weights)
        indptr, indices, lengths = window.csr_index_arrays()
        assert dense.indptr is indptr
        assert dense.indices is indices
        assert dense.lengths is lengths
        ids, xs, ys = window.csr_node_arrays()
        assert dense.ids is ids
        assert dense.xs is xs
        assert dense.ys is ys

    def test_sigma_is_positioned_correctly(self, window_setup):
        window, weights = window_setup
        dense = DenseInstance.from_graph(window, weights)
        position_of = _position_of(dense)
        for node_id, weight in weights.items():
            assert dense.sigma[position_of[node_id]] == weight
        untouched = set(range(dense.num_nodes)) - {position_of[n] for n in weights}
        assert all(dense.sigma[list(untouched)] == 0.0)

    def test_unknown_weight_key_is_rejected(self, window_setup):
        window, weights = window_setup
        weights = dict(weights)
        weights[10 ** 9] = 1.0
        with pytest.raises(QueryError):
            DenseInstance.from_graph(window, weights)

    def test_substrate_of_a_thawed_window_follows_its_order(self, window_setup):
        # The substrate of a frozen RoadNetwork must mirror that network's
        # iteration order (node rows and per-row neighbours) — that is what
        # makes the dense loops tie-break identically to the dict loops over
        # that graph.
        window, weights = window_setup
        thawed = window.to_network()
        dense = DenseInstance.from_graph(CompactNetwork.from_network(thawed), weights)
        assert dense.ids.tolist() == list(thawed.node_ids())
        position_of = _position_of(dense)
        ids = dense.ids.tolist()
        for node_id in thawed.node_ids():
            pos = position_of[node_id]
            row = slice(int(dense.indptr[pos]), int(dense.indptr[pos + 1]))
            dense_row = [
                (ids[p], length)
                for p, length in zip(dense.indices[row].tolist(), dense.lengths[row].tolist())
            ]
            assert dense_row == list(thawed.neighbor_items(node_id))
        for node_id, weight in weights.items():
            assert dense.sigma[position_of[node_id]] == weight


class TestInstanceSubstrate:
    def test_dict_graph_instance_builds_its_substrate_once(self, window_setup):
        # build_instance freezes a RoadNetwork once and attaches the substrate;
        # every later access (siblings included) returns that same object.
        window, weights = window_setup
        thawed = window.to_network()
        query = LCMSRQuery.create(["kw"], delta=900.0)
        instance = build_instance(thawed, query, node_weights=weights)
        dense = instance.dense
        assert isinstance(dense, DenseInstance)
        assert instance.dense is dense
        assert instance.with_budget(None).dense is dense
        assert dense.ids.tolist() == list(thawed.node_ids())
        assert list(dense.weights_dict().items()) == list(instance.weights.items())


class TestDictOrderReplay:
    def test_weights_dict_replays_items_and_order(self, window_setup):
        window, weights = window_setup
        dense = DenseInstance.from_graph(window, weights)
        assert list(dense.weights_dict().items()) == list(weights.items())

    def test_aggregates_match_reference_computations(self, window_setup):
        window, weights = window_setup
        dense = DenseInstance.from_graph(window, weights)
        assert dense.sigma_max == max(weights.values(), default=0.0)
        assert dense.tau_max == window.max_edge_length()
        relevant = dense.relevant_positions()
        ids = dense.ids.tolist()
        assert {ids[p] for p in relevant.tolist()} == {
            n for n, w in weights.items() if w > 0
        }

    def test_empty_weights(self, window_setup):
        window, _ = window_setup
        dense = DenseInstance.from_graph(window, {})
        assert dense.sigma_max == 0.0
        assert dense.relevant_positions().size == 0
        assert dense.weights_dict() == {}


class TestPickleRoundTrip:
    def test_arrays_and_dict_view_survive(self, window_setup):
        window, weights = window_setup
        dense = DenseInstance.from_graph(window, weights)
        rebuilt = pickle.loads(pickle.dumps(dense))
        assert np.array_equal(rebuilt.ids, dense.ids)
        assert np.array_equal(rebuilt.indptr, dense.indptr)
        assert np.array_equal(rebuilt.indices, dense.indices)
        assert np.array_equal(rebuilt.lengths, dense.lengths)
        assert np.array_equal(rebuilt.sigma, dense.sigma)
        assert np.array_equal(rebuilt.relevant_order, dense.relevant_order)
        assert rebuilt.sigma_max == dense.sigma_max
        assert list(rebuilt.weights_dict().items()) == list(weights.items())

    def test_rebuilt_substrate_solves_identically(self, window_setup):
        window, weights = window_setup
        query = LCMSRQuery.create(["kw"], delta=900.0)
        instance = build_instance(window, query, node_weights=weights)
        rebuilt = pickle.loads(pickle.dumps(instance.dense))
        rebound = rebuilt.to_problem_instance(query)
        # The rebound instance has no dict yet; solvers and the lazy dict view
        # must both reproduce the reference twins' results bit for bit.
        for solver in (GreedySolver(), TGENSolver()):
            a = twin(solver).solve(instance)
            b = solver.solve(rebound)
            assert a.region.nodes == b.region.nodes
            assert a.region.edges == b.region.edges
            assert a.weight == b.weight
            assert a.length == b.length
        assert list(rebound.weights.items()) == list(instance.weights.items())
