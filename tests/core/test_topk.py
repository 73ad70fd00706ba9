"""Tests for the top-k LCMSR extension (Section 6.2)."""

from __future__ import annotations

import pytest

from repro.core import LCMSRQuery, build_instance
from repro.core.app import APPSolver
from repro.core.exact import ExactSolver
from repro.core.greedy import GreedySolver
from repro.core.tgen import TGENSolver
from repro.core.topk import node_overlap_fraction, total_weight, weights_are_sorted
from repro.exceptions import SolverError
from repro.network.builders import grid_network

from tests.conftest import PAPER_EXAMPLE_WEIGHTS


@pytest.fixture
def grid_instance():
    network = grid_network(4, 4, spacing=1.0)
    weights = {0: 0.9, 1: 0.8, 5: 0.7, 10: 0.6, 15: 0.9, 14: 0.5, 3: 0.4}
    query = LCMSRQuery.create(["t"], delta=2.0, k=3)
    return build_instance(network, query, node_weights=weights)


class TestSolvers:
    @pytest.mark.parametrize(
        "solver",
        [TGENSolver(alpha=0.2), APPSolver(alpha=0.3, beta=0.1), GreedySolver(0.2), ExactSolver()],
        ids=["tgen", "app", "greedy", "exact"],
    )
    def test_topk_basic_contract(self, grid_instance, solver):
        result = solver.solve_topk(grid_instance, k=3)
        assert 1 <= len(result) <= 3
        assert weights_are_sorted(result) or solver.name == "Greedy"
        node_sets = [r.region.nodes for r in result]
        assert len(set(node_sets)) == len(node_sets), "regions must be distinct"
        for entry in result:
            assert entry.region.satisfies(grid_instance.query.delta)
            entry.region.validate(grid_instance.graph)

    @pytest.mark.parametrize("k", [0, -1])
    @pytest.mark.parametrize(
        "solver",
        [TGENSolver(alpha=0.2), APPSolver(alpha=0.3, beta=0.1), GreedySolver(0.2), ExactSolver()],
        ids=["tgen", "app", "greedy", "exact"],
    )
    def test_k_below_one_is_rejected(self, grid_instance, solver, k):
        # An explicit k < 1 is an error, not a silent fallback to query.k.
        with pytest.raises(SolverError, match="k must be at least 1"):
            solver.solve_topk(grid_instance, k=k)

    def test_best_of_topk_matches_single_query(self, grid_instance):
        solver = TGENSolver(alpha=0.2)
        single = solver.solve(grid_instance)
        topk = solver.solve_topk(grid_instance, k=3)
        assert topk.results
        assert topk.results[0].weight == pytest.approx(single.weight)

    def test_greedy_topk_regions_are_disjoint(self, grid_instance):
        result = GreedySolver(0.2).solve_topk(grid_instance, k=3)
        assert node_overlap_fraction(result) == 0.0

    def test_k_one_equals_plain_query(self, paper_instance):
        solver = TGENSolver(alpha=0.15)
        single = solver.solve(paper_instance)
        topk = solver.solve_topk(paper_instance, k=1)
        assert len(topk) == 1
        assert topk.results[0].region.nodes == single.region.nodes

    def test_exact_topk_dominates_heuristics(self, grid_instance):
        exact = ExactSolver().solve_topk(grid_instance, k=3)
        tgen = TGENSolver(alpha=0.2).solve_topk(grid_instance, k=3)
        # The exact top-1 weight bounds any heuristic's top-1 weight.
        assert exact.results[0].weight >= tgen.results[0].weight - 1e-9

    def test_empty_instance_topk(self, paper_graph):
        query = LCMSRQuery.create(["t"], delta=3.0, k=3)
        instance = build_instance(paper_graph, query, node_weights={})
        for solver in (TGENSolver(), APPSolver(), GreedySolver()):
            assert len(solver.solve_topk(instance, 3)) == 0


class TestHelpers:
    def test_total_weight(self, grid_instance):
        result = TGENSolver(alpha=0.2).solve_topk(grid_instance, k=2)
        assert total_weight(result) == pytest.approx(sum(r.weight for r in result))

    def test_overlap_fraction_empty(self):
        from repro.core.result import TopKResult

        assert node_overlap_fraction(TopKResult([], "x")) == 0.0
