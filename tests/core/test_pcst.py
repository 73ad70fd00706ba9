"""Tests for the Goemans-Williamson PCST primal-dual and strong pruning."""

from __future__ import annotations

import pytest

from repro.core.pcst import PCSTResult, goemans_williamson_pcst, strong_prune
from repro.exceptions import SolverError


def best_tree(result: PCSTResult, prizes):
    """The tree of ``result`` that collects the largest prize."""
    return max(result.trees, key=lambda tree: sum(prizes.get(v, 0.0) for v in tree[0]))


class TestStrongPrune:
    def test_empty_tree(self):
        assert strong_prune(set(), [], {}) == (set(), [])

    def test_keeps_profitable_branch(self):
        # 1 -(1)- 2 -(1)- 3 ; prizes 5, 0, 5 -> everything is worth keeping.
        nodes = {1, 2, 3}
        edges = [(1, 2, 1.0), (2, 3, 1.0)]
        prizes = {1: 5.0, 3: 5.0}
        kept_nodes, kept_edges = strong_prune(nodes, edges, prizes)
        assert kept_nodes == {1, 2, 3}
        assert len(kept_edges) == 2

    def test_prunes_unprofitable_branch(self):
        # A worthless leaf hanging off an expensive edge must be cut.
        nodes = {1, 2, 3}
        edges = [(1, 2, 1.0), (2, 3, 10.0)]
        prizes = {1: 5.0, 2: 5.0, 3: 0.5}
        kept_nodes, _ = strong_prune(nodes, edges, prizes)
        assert kept_nodes == {1, 2}

    def test_explicit_root_always_kept(self):
        nodes = {1, 2}
        edges = [(1, 2, 100.0)]
        prizes = {1: 0.0, 2: 50.0}
        kept_nodes, _ = strong_prune(nodes, edges, prizes, root=1)
        assert 1 in kept_nodes
        assert 2 not in kept_nodes  # reaching the prize costs more than it is worth

    def test_result_is_connected_tree(self):
        nodes = set(range(7))
        # A star with mixed-value leaves.
        edges = [(0, i, float(i)) for i in range(1, 7)]
        prizes = {i: (10.0 if i % 2 == 0 else 0.1) for i in range(7)}
        kept_nodes, kept_edges = strong_prune(nodes, edges, prizes)
        assert 0 in kept_nodes
        assert len(kept_edges) == len(kept_nodes) - 1


class TestGoemansWilliamson:
    def test_empty_graph(self):
        result = goemans_williamson_pcst([], [], {})
        assert result.trees == []
        assert result.total_prize == 0.0

    def test_negative_inputs_rejected(self):
        with pytest.raises(SolverError):
            goemans_williamson_pcst([1, 2], [(1, 2, -1.0)], {})
        with pytest.raises(SolverError):
            goemans_williamson_pcst([1], [], {1: -2.0})

    def test_isolated_prizes_become_single_node_trees(self):
        result = goemans_williamson_pcst([1, 2, 3], [], {1: 1.0, 3: 2.0})
        covered = {node for tree in result.trees for node in tree[0]}
        assert covered == {1, 3}
        assert all(edges == [] for _, edges in result.trees)

    def test_cheap_edge_between_high_prizes_is_taken(self):
        # Two valuable nodes connected cheaply must end up in one tree.
        result = goemans_williamson_pcst(
            [1, 2], [(1, 2, 1.0)], {1: 10.0, 2: 10.0}
        )
        best_nodes, best_edges = best_tree(result, {1: 10.0, 2: 10.0})
        assert best_nodes == {1, 2}
        assert len(best_edges) == 1

    def test_expensive_edge_between_low_prizes_is_not_taken(self):
        result = goemans_williamson_pcst(
            [1, 2], [(1, 2, 100.0)], {1: 1.0, 2: 1.0}
        )
        for nodes, edges in result.trees:
            assert edges == []

    def test_chain_collects_prizes_along_the_way(self):
        nodes = [1, 2, 3, 4]
        edges = [(1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)]
        prizes = {1: 5.0, 2: 0.5, 3: 0.5, 4: 5.0}
        result = goemans_williamson_pcst(nodes, edges, prizes)
        best_nodes, _ = best_tree(result, prizes)
        assert best_nodes == {1, 2, 3, 4}

    def test_trees_are_valid_trees(self):
        nodes = list(range(9))
        # 3x3 grid with unit costs and one strong prize cluster in a corner.
        edges = []
        for r in range(3):
            for c in range(3):
                nid = r * 3 + c
                if c + 1 < 3:
                    edges.append((nid, nid + 1, 1.0))
                if r + 1 < 3:
                    edges.append((nid, nid + 3, 1.0))
        prizes = {0: 4.0, 1: 4.0, 3: 4.0, 8: 0.2}
        result = goemans_williamson_pcst(nodes, edges, prizes)
        for tree_nodes, tree_edges in result.trees:
            assert len(tree_edges) == len(tree_nodes) - 1 or (
                len(tree_nodes) == 1 and not tree_edges
            )
            for u, v, _ in tree_edges:
                assert u in tree_nodes and v in tree_nodes

    def test_larger_prizes_extend_coverage(self):
        """Scaling all prizes up monotonically grows what GW+pruning keeps."""
        nodes = list(range(6))
        edges = [(i, i + 1, 2.0) for i in range(5)]
        base = {i: 1.0 for i in range(6)}
        small = goemans_williamson_pcst(nodes, edges, base)
        big = goemans_williamson_pcst(nodes, edges, {i: 10.0 for i in range(6)})
        covered_small = max((len(t[0]) for t in small.trees), default=0)
        covered_big = max((len(t[0]) for t in big.trees), default=0)
        assert covered_big >= covered_small
        assert covered_big == 6
