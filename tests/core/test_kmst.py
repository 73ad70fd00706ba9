"""Tests for the quota (node-weighted k-MST) solver used by APP's binary search."""

from __future__ import annotations

import pytest

from repro.core.kmst import QuotaTreeSolver
from repro.network.builders import grid_network, path_network, star_network
from repro.network.compact import CompactNetwork


def quota_solver(network, weights, scaled):
    return QuotaTreeSolver(CompactNetwork.from_network(network), weights, scaled)


def solver_on_path(weights=None, scaled=None):
    network = path_network(6, edge_length=2.0)
    weights = weights or {0: 0.5, 2: 0.5, 5: 0.9}
    scaled = scaled or {k: int(v * 10) for k, v in weights.items()}
    return quota_solver(network, weights, scaled), network


class TestBasics:
    def test_no_terminals_returns_none(self):
        network = path_network(3)
        solver = quota_solver(network, {}, {})
        assert solver.solve(5) is None
        assert solver.total_scaled_weight() == 0

    def test_zero_quota_returns_best_single_terminal(self):
        solver, _ = solver_on_path()
        tree = solver.solve(0)
        assert tree is not None
        assert tree.nodes == frozenset({5})
        assert tree.length == 0.0

    def test_single_node_quota(self):
        solver, _ = solver_on_path()
        tree = solver.solve(9)  # the heaviest node alone satisfies it
        assert tree is not None
        assert tree.scaled_weight >= 9
        assert tree.length == 0.0

    def test_quota_above_total_returns_none(self):
        solver, _ = solver_on_path()
        assert solver.total_scaled_weight() == 19
        assert solver.solve(100) is None

    def test_quota_requiring_all_terminals(self):
        solver, network = solver_on_path()
        tree = solver.solve(19)
        assert tree is not None
        assert tree.scaled_weight >= 19
        # Connecting nodes 0, 2 and 5 on the path needs the whole 0..5 stretch (10.0).
        assert tree.length == pytest.approx(10.0)
        # Intermediate path nodes must be part of the tree (it lives in the network).
        assert {0, 1, 2, 3, 4, 5} == set(tree.nodes)

    def test_tree_is_structurally_valid(self):
        solver, network = solver_on_path()
        tree = solver.solve(14)
        assert tree is not None
        assert len(tree.edges) == len(tree.nodes) - 1
        for u, v in tree.edges:
            assert network.has_edge(u, v)
        assert tree.length == pytest.approx(
            sum(network.edge_length(u, v) for u, v in tree.edges)
        )


class TestQuality:
    def test_nearby_cluster_preferred_over_far_nodes(self):
        # Two weighted clusters: a compact one (quota reachable cheaply) and a far one.
        network = grid_network(5, 5, spacing=1.0)
        weights = {0: 1.0, 1: 1.0, 5: 1.0, 24: 1.0}
        scaled = {k: 10 for k in weights}
        solver = quota_solver(network, weights, scaled)
        tree = solver.solve(30)
        assert tree is not None
        # The three co-located corner nodes {0, 1, 5} satisfy the quota with length 2.
        assert tree.scaled_weight >= 30
        assert tree.length == pytest.approx(2.0)
        assert 24 not in tree.nodes

    def test_monotone_quota_length(self):
        solver, _ = solver_on_path()
        lengths = []
        for quota in (5, 9, 14, 19):
            tree = solver.solve(quota)
            assert tree is not None
            assert tree.scaled_weight >= quota
            lengths.append(tree.length)
        assert lengths == sorted(lengths)

    def test_star_graph_picks_cheapest_leaves(self):
        network = star_network(5, edge_length=1.0)
        # Leaves 1..5 all weighted equally; centre unweighted.
        weights = {leaf: 1.0 for leaf in range(1, 6)}
        scaled = {leaf: 10 for leaf in range(1, 6)}
        solver = quota_solver(network, weights, scaled)
        tree = solver.solve(20)
        assert tree is not None
        assert tree.scaled_weight >= 20
        # Two leaves plus the centre: length 2 (any extra leaf would add 1.0).
        assert tree.length <= 3.0 + 1e-9

    def test_candidate_trees_cached(self):
        solver, _ = solver_on_path()
        solver.solve(5)
        runs_after_first = solver.num_gw_runs
        solver.solve(14)
        assert solver.num_gw_runs == runs_after_first  # ladder reused, no extra GW runs


class TestClosurePathFill:
    """A closure-MST edge no terminal's nearest-neighbour probe recorded.

    With more terminals in each of two clusters than ``closure_neighbors``,
    every terminal's nearest neighbours lie in its own cluster, so the MST edge
    that bridges the clusters needs its path filled in afterwards. APP and its
    reference twin must both take that path and agree.
    """

    def test_solver_and_twin_fill_the_bridging_path(self, monkeypatch):
        from repro.core import reference
        from repro.core.app import APPSolver
        from repro.core.instance import build_instance
        from repro.core.query import LCMSRQuery

        fills = []

        def counting(cls):
            collect = cls._collect_closure

            def wrapped(self, terminal_set, nearest):
                fill_path = collect(self, terminal_set, nearest)

                def counted(u, v):
                    fills.append((cls.__name__, u, v))
                    return fill_path(u, v)

                return counted

            monkeypatch.setattr(cls, "_collect_closure", wrapped)

        counting(QuotaTreeSolver)
        counting(reference.ReferenceQuotaTreeSolver)
        network = grid_network(4, 30, spacing=10.0)
        weights = {node.node_id: 1.0 for node in network.nodes()
                   if node.x <= 20.0 or node.x >= 270.0}
        instance = build_instance(network, LCMSRQuery.create(["t"], delta=400.0),
                                  node_weights=weights)
        ours = APPSolver(alpha=0.5, beta=0.1).solve(instance)
        theirs = reference.twin(APPSolver(alpha=0.5, beta=0.1)).solve(instance)
        assert {name for name, _, _ in fills} == {
            "QuotaTreeSolver", "ReferenceQuotaTreeSolver"
        }
        assert (ours.region.nodes, ours.region.edges, ours.weight) == (
            theirs.region.nodes, theirs.region.edges, theirs.weight
        )
