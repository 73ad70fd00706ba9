"""Tests for the APP algorithm: binary search, findOptTree DP and end-to-end solving."""

from __future__ import annotations

import pytest

from repro.core import LCMSRQuery, build_instance
from repro.core.app import APPSolver, find_opt_tree, rank_tuples_from_arrays
from repro.core.kmst import CandidateTree
from repro.core.scaling import ScalingContext
from repro.exceptions import SolverError
from repro.network.builders import paper_example_network, path_network, star_network

from tests.conftest import (
    PAPER_EXAMPLE_DELTA,
    PAPER_EXAMPLE_OPTIMUM_LENGTH,
    PAPER_EXAMPLE_OPTIMUM_NODES,
    PAPER_EXAMPLE_OPTIMUM_WEIGHT,
    PAPER_EXAMPLE_WEIGHTS,
)


def make_candidate_tree(graph, nodes, edges, weights, scaled):
    length = sum(graph.edge_length(u, v) for u, v in edges)
    return CandidateTree(
        nodes=frozenset(nodes),
        edges=frozenset(edges),
        length=length,
        weight=sum(weights.get(v, 0.0) for v in nodes),
        scaled_weight=sum(scaled.get(v, 0) for v in nodes),
    )


class TestParameterValidation:
    def test_alpha_and_beta_must_be_positive(self):
        with pytest.raises(SolverError):
            APPSolver(alpha=0.0)
        with pytest.raises(SolverError):
            APPSolver(beta=0.0)

    @pytest.mark.parametrize("iterations", [0, -1])
    def test_max_iterations_below_one_rejected(self, iterations):
        # Fewer than one iteration used to skip the binary search and answer
        # the single heaviest node.
        with pytest.raises(SolverError):
            APPSolver(max_iterations=iterations)

    def test_one_iteration_accepted(self, paper_instance):
        result = APPSolver(max_iterations=1).solve(paper_instance)
        assert result.region.nodes == PAPER_EXAMPLE_OPTIMUM_NODES


class TestFindOptTree:
    def test_empty_tree(self):
        graph = path_network(2)
        tree = CandidateTree(frozenset(), frozenset(), 0.0, 0.0, 0)
        best, arrays = find_opt_tree(tree, graph, {}, {}, delta=5.0)
        assert best is None
        assert arrays == {}

    def test_single_node_tree(self):
        graph = path_network(2)
        tree = make_candidate_tree(graph, [0], [], {0: 0.4}, {0: 4})
        best, _ = find_opt_tree(tree, graph, {0: 0.4}, {0: 4}, delta=5.0)
        assert best is not None
        assert best.nodes == frozenset({0})
        assert best.scaled_weight == 4

    def test_knapsack_star_case(self):
        """Theorem 3's construction: a star where the DP must pick the best subset."""
        graph = star_network(4, edge_length=1.0)
        # Leaf weights 4,3,2,1 with uniform edge costs 1; Δ = 2 -> keep the two best.
        weights = {1: 0.4, 2: 0.3, 3: 0.2, 4: 0.1, 0: 0.0}
        scaled = {1: 4, 2: 3, 3: 2, 4: 1, 0: 0}
        tree = make_candidate_tree(
            graph, [0, 1, 2, 3, 4], [(0, 1), (0, 2), (0, 3), (0, 4)], weights, scaled
        )
        best, _ = find_opt_tree(tree, graph, weights, scaled, delta=2.0)
        assert best is not None
        assert best.nodes == frozenset({0, 1, 2})
        assert best.scaled_weight == 7
        assert best.length == pytest.approx(2.0)

    def test_respects_length_constraint(self):
        graph = path_network(5, edge_length=3.0)
        weights = {i: 0.1 * (i + 1) for i in range(5)}
        scaled = {i: i + 1 for i in range(5)}
        tree = make_candidate_tree(
            graph, list(range(5)), [(i, i + 1) for i in range(4)], weights, scaled
        )
        best, _ = find_opt_tree(tree, graph, weights, scaled, delta=6.0)
        assert best is not None
        assert best.length <= 6.0 + 1e-9
        # Best feasible stretch of length <= 6 is nodes {2,3,4} (scaled 12).
        assert best.nodes == frozenset({2, 3, 4})

    def test_paper_example_dp_on_optimal_tree(self):
        graph = paper_example_network()
        weights = PAPER_EXAMPLE_WEIGHTS
        scaling = ScalingContext.build(weights, 6, alpha=0.15)
        scaled = scaling.scale_weights(weights)
        # Candidate tree = the whole optimal region's tree plus the detour to v1.
        tree = make_candidate_tree(
            graph, [1, 2, 4, 5, 6], [(1, 2), (2, 6), (6, 5), (5, 4)], weights, scaled
        )
        best, arrays = find_opt_tree(tree, graph, weights, scaled, PAPER_EXAMPLE_DELTA)
        assert best is not None
        assert best.nodes == PAPER_EXAMPLE_OPTIMUM_NODES
        assert best.weight == pytest.approx(PAPER_EXAMPLE_OPTIMUM_WEIGHT)
        assert len(arrays) == 5

    def test_rank_tuples_from_arrays_distinct(self):
        graph = path_network(3, edge_length=1.0)
        weights = {0: 0.3, 1: 0.2, 2: 0.1}
        scaled = {0: 3, 1: 2, 2: 1}
        tree = make_candidate_tree(graph, [0, 1, 2], [(0, 1), (1, 2)], weights, scaled)
        _, arrays = find_opt_tree(tree, graph, weights, scaled, delta=10.0)
        ranked = rank_tuples_from_arrays(arrays, k=3)
        assert len(ranked) == 3
        node_sets = [t.nodes for t in ranked]
        assert len(set(node_sets)) == 3
        assert ranked[0].scaled_weight >= ranked[1].scaled_weight >= ranked[2].scaled_weight


class TestBinarySearch:
    def test_trace_has_table1_shape(self, paper_instance):
        solver = APPSolver(alpha=0.15, beta=0.5)
        trace = solver.trace_binary_search(paper_instance)
        assert len(trace) >= 1
        rows = trace.rows()
        for row in rows:
            assert row["L"] <= row["X"] <= row["U"]
        # The final step must have probed the boosted quota (the break condition).
        assert rows[-1]["(1+beta)X"] is not None

    def test_trace_on_empty_instance(self, paper_graph):
        query = LCMSRQuery.create(["t"], delta=5.0)
        instance = build_instance(paper_graph, query, node_weights={})
        assert len(APPSolver().trace_binary_search(instance)) == 0


class TestEndToEnd:
    def test_paper_example_optimum_recovered(self, paper_instance):
        result = APPSolver(alpha=0.15, beta=0.1).solve(paper_instance)
        assert result.region.nodes == PAPER_EXAMPLE_OPTIMUM_NODES
        assert result.weight == pytest.approx(PAPER_EXAMPLE_OPTIMUM_WEIGHT)
        assert result.length == pytest.approx(PAPER_EXAMPLE_OPTIMUM_LENGTH)
        assert result.region.satisfies(PAPER_EXAMPLE_DELTA)
        assert result.stats["binary_search_iterations"] >= 1

    def test_result_always_feasible(self, paper_graph):
        weights = PAPER_EXAMPLE_WEIGHTS
        for delta in (0.0, 1.6, 3.0, 4.5, 6.0, 20.0):
            query = LCMSRQuery.create(["t"], delta=delta)
            instance = build_instance(paper_graph, query, node_weights=weights)
            result = APPSolver(alpha=0.15, beta=0.1).solve(instance)
            assert result.region.satisfies(delta)
            assert not result.is_empty
            result.region.validate(paper_graph)

    def test_zero_delta_returns_heaviest_node(self, paper_graph):
        query = LCMSRQuery.create(["t"], delta=0.0)
        instance = build_instance(paper_graph, query, node_weights=PAPER_EXAMPLE_WEIGHTS)
        result = APPSolver(alpha=0.15).solve(instance)
        assert result.region.num_nodes == 1
        assert result.weight == pytest.approx(0.4)

    def test_no_relevant_nodes_returns_empty(self, paper_graph):
        query = LCMSRQuery.create(["t"], delta=5.0)
        instance = build_instance(paper_graph, query, node_weights={})
        result = APPSolver().solve(instance)
        assert result.is_empty

    def test_unlimited_delta_collects_everything(self, paper_graph):
        query = LCMSRQuery.create(["t"], delta=1e6)
        instance = build_instance(paper_graph, query, node_weights=PAPER_EXAMPLE_WEIGHTS)
        result = APPSolver(alpha=0.15).solve(instance)
        assert result.weight == pytest.approx(sum(PAPER_EXAMPLE_WEIGHTS.values()))
