"""Tests for the Greedy expansion algorithm.

The expansion runs in the compiled kernel, and every answer must equal the
dict loop of :class:`~repro.core.reference.ReferenceGreedy` on the same
instance. The expansion tests run on each instance as built and as the
serving layer's instance cache rebinds it (the ``route`` fixture).
"""

from __future__ import annotations

import pytest

from repro.core import LCMSRQuery, build_instance
from repro.core.greedy import GreedySolver
from repro.core.reference import twin
from repro.exceptions import SolverError
from repro.network.builders import grid_network, paper_example_network, path_network

from tests.conftest import PAPER_EXAMPLE_WEIGHTS


def _solve(solver, instance):
    """``solver.solve(instance)``, checked against the reference twin."""
    result = solver.solve(instance)
    reference = twin(solver).solve(instance)
    assert result.region.nodes == reference.region.nodes
    assert result.region.edges == reference.region.edges
    assert result.weight == reference.weight
    assert result.length == reference.length
    return result


class TestParameterValidation:
    def test_mu_range(self):
        GreedySolver(mu=0.0)
        GreedySolver(mu=1.0)
        with pytest.raises(SolverError):
            GreedySolver(mu=-0.1)
        with pytest.raises(SolverError):
            GreedySolver(mu=1.5)


class TestExpansion:
    def test_seed_is_heaviest_node(self, paper_graph, route):
        query = LCMSRQuery.create(["t"], delta=0.0)
        instance = route(
            build_instance(paper_graph, query, node_weights=PAPER_EXAMPLE_WEIGHTS)
        )
        result = _solve(GreedySolver(mu=0.2), instance)
        assert result.region.num_nodes == 1
        # σmax = 0.4 is shared by v3 and v6; either seed is acceptable.
        assert result.weight == pytest.approx(0.4)

    def test_respects_length_constraint(self, paper_graph, route):
        for delta in (0.0, 2.0, 4.0, 6.0, 10.0):
            query = LCMSRQuery.create(["t"], delta=delta)
            instance = route(
                build_instance(paper_graph, query, node_weights=PAPER_EXAMPLE_WEIGHTS)
            )
            result = _solve(GreedySolver(mu=0.2), instance)
            assert result.region.satisfies(delta)
            result.region.validate(paper_graph)

    def test_pure_weight_mode_prefers_heavy_neighbor(self, route):
        # From the seed, one neighbour is heavy but far, the other light but near.
        network = path_network(3, edge_length=1.0)
        network.add_node(10, -5.0, 0.0)
        network.add_edge(0, 10, 5.0)
        weights = {0: 1.0, 1: 0.1, 10: 0.9}
        query = LCMSRQuery.create(["t"], delta=5.0)
        instance = route(build_instance(network, query, node_weights=weights))
        result = _solve(GreedySolver(mu=0.0), instance)  # weight only
        assert 10 in result.region.nodes

    def test_pure_length_mode_prefers_near_neighbor(self, route):
        network = path_network(3, edge_length=1.0)
        network.add_node(10, -5.0, 0.0)
        network.add_edge(0, 10, 5.0)
        weights = {0: 1.0, 1: 0.1, 10: 0.9}
        query = LCMSRQuery.create(["t"], delta=5.0)
        instance = route(build_instance(network, query, node_weights=weights))
        result = _solve(GreedySolver(mu=1.0), instance)  # length only
        assert 1 in result.region.nodes
        assert 10 not in result.region.nodes

    def test_local_seed_trap(self, route):
        """Greedy seeds at the globally heaviest node even when a better cluster exists.

        This is exactly the weakness the paper's accuracy figures show: the isolated
        heavy node attracts the seed, and the budget cannot reach the (collectively
        heavier) far cluster any more.
        """
        network = path_network(7, edge_length=1.0)
        weights = {0: 1.0, 4: 0.8, 5: 0.8, 6: 0.8}
        query = LCMSRQuery.create(["t"], delta=2.0)
        instance = route(build_instance(network, query, node_weights=weights))
        greedy_weight = _solve(GreedySolver(mu=0.2), instance).weight
        # The optimum is the cluster {4, 5, 6} with weight 2.4.
        assert greedy_weight < 2.4

    def test_empty_instance(self, paper_graph, route):
        query = LCMSRQuery.create(["t"], delta=5.0)
        instance = route(build_instance(paper_graph, query, node_weights={}))
        assert _solve(GreedySolver(), instance).is_empty

    def test_deterministic(self, paper_instance, route):
        instance = route(paper_instance)
        a = _solve(GreedySolver(mu=0.2), instance)
        b = _solve(GreedySolver(mu=0.2), instance)
        assert a.region.nodes == b.region.nodes

    def test_grid_expansion_is_connected(self, route):
        network = grid_network(5, 5, spacing=1.0)
        weights = {i: 0.1 + (i % 7) * 0.1 for i in range(25)}
        query = LCMSRQuery.create(["t"], delta=8.0)
        instance = route(build_instance(network, query, node_weights=weights))
        result = _solve(GreedySolver(mu=0.4), instance)
        assert result.region.is_connected()
        assert result.region.is_tree()
        assert result.region.satisfies(8.0)
