"""Tests for the exact brute-force oracle."""

from __future__ import annotations

import itertools

import pytest

from repro.core import LCMSRQuery, build_instance
from repro.core.exact import ExactSolver, _connected_subsets, _induced_mst
from repro.core.region import Region
from repro.exceptions import SolverError
from repro.network.builders import grid_network, paper_example_network, path_network

from tests.conftest import (
    PAPER_EXAMPLE_DELTA,
    PAPER_EXAMPLE_OPTIMUM_NODES,
    PAPER_EXAMPLE_OPTIMUM_WEIGHT,
    PAPER_EXAMPLE_WEIGHTS,
)


def brute_force_connected_subsets(graph):
    """Reference enumeration by powerset + connectivity over the induced edges."""
    nodes = sorted(graph.node_ids())
    edges = [(edge.u, edge.v) for edge in graph.edges()]
    found = set()
    for size in range(1, len(nodes) + 1):
        for combo in itertools.combinations(nodes, size):
            members = frozenset(combo)
            induced = frozenset((u, v) for u, v in edges if u in members and v in members)
            if Region(members, induced, 0.0, 0.0).is_connected():
                found.add(members)
    return found


class TestEnumeration:
    def test_connected_subsets_match_powerset_on_grid(self):
        graph = grid_network(2, 3, spacing=1.0)
        enumerated = list(_connected_subsets(graph, sorted(graph.node_ids())))
        assert len(enumerated) == len(set(enumerated)), "subsets must be produced once"
        assert set(enumerated) == brute_force_connected_subsets(graph)

    def test_connected_subsets_match_powerset_on_paper_graph(self):
        graph = paper_example_network()
        enumerated = set(_connected_subsets(graph, sorted(graph.node_ids())))
        assert enumerated == brute_force_connected_subsets(graph)

    def test_induced_mst(self):
        graph = paper_example_network()
        length, edges = _induced_mst(graph, frozenset({2, 5, 6}))
        assert length == pytest.approx(1.5 + 2.8)
        assert len(edges) == 2

    def test_induced_mst_disconnected_returns_none(self):
        graph = paper_example_network()
        assert _induced_mst(graph, frozenset({1, 4})) is None


class TestSolve:
    def test_paper_example(self, paper_instance):
        result = ExactSolver().solve(paper_instance)
        assert result.region.nodes == PAPER_EXAMPLE_OPTIMUM_NODES
        assert result.weight == pytest.approx(PAPER_EXAMPLE_OPTIMUM_WEIGHT)
        assert result.region.satisfies(PAPER_EXAMPLE_DELTA)

    def test_rejects_large_instances(self):
        network = grid_network(6, 6, spacing=1.0)
        query = LCMSRQuery.create(["t"], delta=3.0)
        instance = build_instance(network, query, node_weights={0: 1.0})
        with pytest.raises(SolverError):
            ExactSolver(max_nodes=20).solve(instance)

    def test_empty_instance(self, paper_graph):
        query = LCMSRQuery.create(["t"], delta=3.0)
        instance = build_instance(paper_graph, query, node_weights={})
        assert ExactSolver().solve(instance).is_empty

    def test_tie_breaking_prefers_shorter_region(self):
        # Two single-node optima with equal weight: either is fine, but the result
        # must not pay any length for it.
        network = path_network(3, edge_length=5.0)
        weights = {0: 1.0, 2: 1.0}
        query = LCMSRQuery.create(["t"], delta=4.0)
        instance = build_instance(network, query, node_weights=weights)
        result = ExactSolver().solve(instance)
        assert result.weight == pytest.approx(1.0)
        assert result.length == 0.0

    def test_optimal_uses_zero_weight_connector(self):
        # The two weighted nodes can only be joined through an unweighted middle node.
        network = path_network(3, edge_length=1.0)
        weights = {0: 1.0, 2: 1.0}
        query = LCMSRQuery.create(["t"], delta=2.0)
        instance = build_instance(network, query, node_weights=weights)
        result = ExactSolver().solve(instance)
        assert result.region.nodes == frozenset({0, 1, 2})
        assert result.weight == pytest.approx(2.0)

    def test_topk_distinct_and_sorted(self, paper_instance):
        topk = ExactSolver().solve_topk(paper_instance, k=3)
        assert len(topk) == 3
        weights = [entry.weight for entry in topk]
        assert weights == sorted(weights, reverse=True)
        node_sets = [r.region.nodes for r in topk]
        assert len(set(node_sets)) == 3
