"""Tests for the TGEN tuple-generation algorithm."""

from __future__ import annotations

import math
import random

import pytest

from repro.core import LCMSRQuery, build_instance
from repro.core.reference import ReferenceTGEN
from repro.core.tgen import TGENSolver
from repro.core.tuples import EPS, TupleArray
from repro.exceptions import SolverError
from repro.network.builders import grid_network, paper_example_network, path_network
from repro.network.graph import RoadNetwork

from tests.conftest import (
    PAPER_EXAMPLE_DELTA,
    PAPER_EXAMPLE_OPTIMUM_NODES,
    PAPER_EXAMPLE_OPTIMUM_WEIGHT,
    PAPER_EXAMPLE_WEIGHTS,
)


class TestParameterValidation:
    def test_alpha_must_be_positive(self):
        with pytest.raises(SolverError):
            TGENSolver(alpha=0.0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_alpha_rejected(self, alpha):
        # A NaN alpha used to scale every weight to INT64_MIN and answer a
        # one-node region of weight 0.
        with pytest.raises(SolverError):
            TGENSolver(alpha=alpha)

    @pytest.mark.parametrize("alpha", [1e-19, 5e-324])
    def test_alpha_whose_scaled_weights_overflow_is_rejected(self, paper_instance, alpha):
        # At α = 1e-19 the heaviest of the six nodes scales to 6e19, past
        # int64: the dense loop used to wrap it to a negative weight while
        # the twin kept exact ints. At 5e-324 θ underflows to 0.
        with pytest.raises(SolverError):
            TGENSolver(alpha=alpha).solve(paper_instance)
        with pytest.raises(SolverError):
            ReferenceTGEN(alpha=alpha).solve(paper_instance)

    def test_edge_order_validated(self):
        with pytest.raises(SolverError):
            TGENSolver(edge_order="random")

    @pytest.mark.parametrize("cap", [0, -1])
    def test_tuple_cap_below_one_rejected(self, cap):
        # A cap of 0 or below used to be accepted and silently changed the
        # answer (cap -1 kept all tuples but one).
        with pytest.raises(SolverError):
            TGENSolver(max_tuples_per_node=cap)

    def test_tuple_cap_of_one_and_none_accepted(self):
        assert TGENSolver(max_tuples_per_node=1).max_tuples_per_node == 1
        assert TGENSolver(max_tuples_per_node=None).max_tuples_per_node is None

    @pytest.mark.parametrize("cap", [2**31 - 1, 2**31, 2**32 + 1])
    def test_tuple_cap_must_fit_the_kernels_int32(self, cap):
        # The kernel reads the cap as an int32, so 2**32 + 1 used to wrap to
        # 1: on this 6×6 grid at α = 1 and ∆ = 600 m it answered weight 33.0
        # from 30 tuples where the uncapped twin finds 46.0 from 3,874. The
        # largest int32 is kept and caps nothing here.
        network = grid_network(6, 6, spacing=100.0)
        weights = {node: 1.0 + node % 7 for node in network.node_ids()}
        instance = build_instance(
            network, LCMSRQuery.create(["t"], delta=600.0), node_weights=weights
        )
        if cap > 2**31 - 1:
            with pytest.raises(SolverError, match=r"2\*\*31 - 1"):
                TGENSolver(alpha=1.0, max_tuples_per_node=cap)
            return
        result = TGENSolver(alpha=1.0, max_tuples_per_node=cap).solve(instance)
        reference = ReferenceTGEN(alpha=1.0).solve(instance)
        assert result.region.nodes == reference.region.nodes
        assert (result.weight, result.stats["tuples_generated"]) == (46.0, 3874.0)
        assert reference.stats["tuples_generated"] == 3874.0

    def test_auto_alpha_scales_with_window(self, paper_instance):
        solver = TGENSolver()
        assert solver.alpha is None
        effective = solver._effective_alpha(paper_instance)
        assert effective == pytest.approx(6 / TGENSolver.AUTO_BUCKETS)


class TestEndToEnd:
    def test_paper_example_optimum_recovered(self, paper_instance):
        result = TGENSolver(alpha=0.15).solve(paper_instance)
        assert result.region.nodes == PAPER_EXAMPLE_OPTIMUM_NODES
        assert result.weight == pytest.approx(PAPER_EXAMPLE_OPTIMUM_WEIGHT)
        assert result.scaled_weight == 110  # Example 3's region tuple

    def test_figure3_drawback_scenario(self):
        """The Figure 3 query: keywords {t1, t2}, Δ = 3.5 -> region {v2, v3}.

        The clustering strawman splits v2 and v3 into different clusters; TGEN must
        return exactly that cross-cluster region.
        """
        graph = paper_example_network()
        # Only v2 (t2, t3) and v3 (t1, t4) are relevant to {t1, t2}.
        weights = {2: 0.5, 3: 0.5}
        query = LCMSRQuery.create(["t1", "t2"], delta=5.0)
        instance = build_instance(graph, query, node_weights=weights)
        result = TGENSolver(alpha=0.15).solve(instance)
        assert result.region.nodes == frozenset({2, 3})

    def test_result_always_feasible_and_connected(self, paper_graph):
        for delta in (0.0, 2.0, 3.5, 5.0, 6.0, 12.0):
            query = LCMSRQuery.create(["t"], delta=delta)
            instance = build_instance(paper_graph, query, node_weights=PAPER_EXAMPLE_WEIGHTS)
            result = TGENSolver(alpha=0.15).solve(instance)
            assert result.region.satisfies(delta)
            result.region.validate(paper_graph)

    def test_no_relevant_nodes(self, paper_graph):
        query = LCMSRQuery.create(["t"], delta=5.0)
        instance = build_instance(paper_graph, query, node_weights={})
        assert TGENSolver().solve(instance).is_empty

    def test_monotone_in_delta(self, paper_graph):
        """A larger budget can never produce a lighter region."""
        weights = PAPER_EXAMPLE_WEIGHTS
        previous = -1.0
        for delta in (0.0, 1.6, 3.0, 4.4, 5.9, 8.0, 14.0):
            query = LCMSRQuery.create(["t"], delta=delta)
            instance = build_instance(paper_graph, query, node_weights=weights)
            weight = TGENSolver(alpha=0.05).solve(instance).weight
            assert weight >= previous - 1e-9
            previous = weight

    def test_disconnected_window_handled(self):
        """TGEN restarts its BFS in every component (Algorithm 2's outer loop)."""
        network = path_network(3, edge_length=1.0)
        network.add_node(10, 100.0, 0.0)
        network.add_node(11, 101.0, 0.0)
        network.add_edge(10, 11, 1.0)
        weights = {0: 0.2, 1: 0.2, 10: 0.9, 11: 0.9}
        query = LCMSRQuery.create(["t"], delta=1.5)
        instance = build_instance(network, query, node_weights=weights)
        result = TGENSolver(alpha=0.1).solve(instance)
        assert result.region.nodes == frozenset({10, 11})

    def test_edge_longer_than_delta_skipped(self):
        network = path_network(2, edge_length=10.0)
        weights = {0: 0.5, 1: 0.5}
        query = LCMSRQuery.create(["t"], delta=5.0)
        instance = build_instance(network, query, node_weights=weights)
        result = TGENSolver(alpha=0.1).solve(instance)
        assert result.region.num_nodes == 1

    def test_length_edge_order_gives_similar_quality(self, paper_instance):
        bfs = TGENSolver(alpha=0.15, edge_order="bfs").solve(paper_instance)
        by_length = TGENSolver(alpha=0.15, edge_order="length").solve(paper_instance)
        assert by_length.weight == pytest.approx(bfs.weight)

    def test_tuple_cap_trades_accuracy(self):
        """A tiny per-node tuple cap cannot beat the uncapped run (ablation invariant)."""
        network = grid_network(4, 4, spacing=1.0)
        weights = {i: 0.1 + 0.05 * (i % 5) for i in range(16)}
        query = LCMSRQuery.create(["t"], delta=6.0)
        instance = build_instance(network, query, node_weights=weights)
        full = TGENSolver(alpha=0.2).solve(instance)
        capped = TGENSolver(alpha=0.2, max_tuples_per_node=2).solve(instance)
        assert capped.weight <= full.weight + 1e-9

    def test_coarser_alpha_reduces_tuple_count(self, paper_graph):
        query = LCMSRQuery.create(["t"], delta=6.0)
        instance = build_instance(paper_graph, query, node_weights=PAPER_EXAMPLE_WEIGHTS)
        fine = TGENSolver(alpha=0.05).solve(instance)
        coarse = TGENSolver(alpha=3.0).solve(instance)
        assert coarse.stats["tuples_generated"] <= fine.stats["tuples_generated"]


class TestDominanceTies:
    """Near-ties and an exact tie in the dominance update (Lemma 6).

    A stored region is replaced only by one shorter by more than ``EPS``, so of
    two regions with equal scaled weight whose lengths differ by less than
    ``EPS`` (or not at all) the first to arrive stays, in either order. On this
    graph only nodes 0, 3 and 4 weigh anything, so regions that differ by
    zero-weight nodes share a scaled weight, and paths of edges 0.1 and 0.2
    compete with edges of 0.3. The stored regions feed later combinations, so
    a store that ignored ``EPS`` or let a tie replace would change the answers
    and counters compared below. TGEN's kernel must keep what its reference
    twin keeps, on the instance as built and as a cache hit rebinds it.
    """

    EDGES = [
        ((0, 1), 0.2), ((0, 2), 0.3), ((0, 4), 0.3), ((0, 7), 0.1), ((1, 3), 0.1),
        ((1, 6), 0.1), ((3, 4), 0.3), ((3, 5), 0.2), ((4, 5), 0.1), ((4, 7), 0.1),
        ((5, 6), 0.2),
    ]
    WEIGHTS = {0: 1.0, 3: 2.0, 4: 1.0}

    @pytest.fixture
    def instance(self):
        network = RoadNetwork()
        for node in range(8):
            network.add_node(node, float(node), float(node % 2))
        for (u, v), length in self.EDGES:
            network.add_edge(u, v, length=length)
        query = LCMSRQuery.create(["t"], delta=1.0)
        # TGEN skips no edge here (the test checks it), so TGEN and its twin,
        # which never skips one, do the same work.
        return build_instance(network, query, node_weights=self.WEIGHTS)

    def test_the_gaps_are_within_eps(self):
        assert 0 < (0.1 + 0.2) - 0.3 <= EPS

    def test_the_reference_meets_both_orders_and_an_exact_tie(self, instance, monkeypatch):
        seen = set()
        update = TupleArray.update

        def recording(array, candidate):
            stored = next(
                (t for t in array.tuples() if t.scaled_weight == candidate.scaled_weight),
                None,
            )
            if (
                stored is not None
                and stored.nodes != candidate.nodes
                and abs(candidate.length - stored.length) <= EPS
            ):
                seen.add(
                    "exact" if candidate.length == stored.length
                    else "shorter-later" if candidate.length < stored.length
                    else "longer-later"
                )
            return update(array, candidate)

        monkeypatch.setattr(TupleArray, "update", recording)
        ReferenceTGEN(alpha=0.5).solve(instance)
        assert seen == {"exact", "shorter-later", "longer-later"}

    @pytest.mark.parametrize("cap", [None, 2], ids=["uncapped", "cap2"])
    def test_matches_the_reference(self, instance, cap, route):
        """Solve and answer top-5 with TGEN and its twin."""
        instance = route(instance)
        solver = TGENSolver(alpha=0.5, max_tuples_per_node=cap)
        reference = ReferenceTGEN(alpha=0.5, max_tuples_per_node=cap)
        a = reference.solve(instance)
        b = solver.solve(instance)
        for key in ("tuples_generated", "edges_processed"):
            assert a.stats[key] == b.stats[key]
        assert b.stats["edges_skipped"] == 0.0
        topk_a = reference.solve_topk(instance, k=5).results
        topk_b = solver.solve_topk(instance, k=5).results
        assert len(topk_a) == len(topk_b) > 1
        for result_a, result_b in [(a, b)] + list(zip(topk_a, topk_b)):
            assert result_a.region.nodes == result_b.region.nodes
            assert result_a.region.edges == result_b.region.edges
            assert result_a.weight == result_b.weight
            assert result_a.length == result_b.length
            assert result_a.scaled_weight == result_b.scaled_weight


class TestEdgeLengthTies:
    """``edge_order="length"`` on a grid of equal blocks: every edge of a node
    ties, so the sort must keep CSR order, as the twin's stable sort does. A
    sort that reorders ties visits the nodes in another order and generates
    other tuples."""

    def test_ties_keep_csr_order(self, route):
        network = grid_network(5, 5, spacing=100.0)
        rng = random.Random(4)
        weights = {
            node: round(rng.uniform(0.1, 1.0), 2)
            for node in network.node_ids()
            if rng.random() < 0.5
        }
        query = LCMSRQuery.create(["t"], delta=450.0)
        instance = route(build_instance(network, query, node_weights=weights))
        a = ReferenceTGEN(alpha=0.2, edge_order="length").solve(instance)
        b = TGENSolver(alpha=0.2, edge_order="length").solve(instance)
        assert a.region.nodes == b.region.nodes
        assert a.region.edges == b.region.edges
        assert (a.weight, a.length, a.scaled_weight) == (b.weight, b.length, b.scaled_weight)
        for key in ("tuples_generated", "edges_processed"):
            assert a.stats[key] == b.stats[key]
