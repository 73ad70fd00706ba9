"""Tests for problem-instance construction (windowing + weight sources)."""

from __future__ import annotations

import pytest

from repro.core import LCMSRQuery, build_instance
from repro.exceptions import QueryError
from repro.network.builders import grid_network
from repro.network.subgraph import Rectangle
from repro.objects.mapping import map_objects_to_network
from repro.textindex.columnar import ColumnarScoringIndex, WeightPipeline
from repro.textindex.relevance import RelevanceScorer, ScoringMode

from tests.conftest import make_small_corpus


@pytest.fixture
def indexed_setup():
    network = grid_network(4, 4, spacing=100.0)
    corpus = make_small_corpus()
    mapping = map_objects_to_network(network, corpus)
    columnar = ColumnarScoringIndex.build(corpus, mapping, network.coords)
    pipeline = WeightPipeline(columnar, ScoringMode.TEXT_RELEVANCE)
    scorer = RelevanceScorer(corpus, mapping)
    return network, corpus, mapping, pipeline, scorer


class TestWeightSources:
    def test_requires_exactly_one_source(self, indexed_setup):
        network, _, _, pipeline, scorer = indexed_setup
        query = LCMSRQuery.create(["cafe"], delta=300.0)
        with pytest.raises(QueryError):
            build_instance(network, query)
        with pytest.raises(QueryError):
            build_instance(network, query, pipeline=pipeline, scorer=scorer)

    def test_explicit_node_weights_filtered_to_window(self, indexed_setup):
        network, *_ = indexed_setup
        query = LCMSRQuery.create(["x"], delta=300.0, region=Rectangle(0, 0, 150, 150))
        instance = build_instance(
            network, query, node_weights={0: 1.0, 15: 2.0, 5: 0.0}
        )
        assert 0 in instance.weights
        assert 15 not in instance.weights  # outside the window
        assert 5 not in instance.weights  # zero weight dropped


class TestWindowing:
    def test_window_restricts_graph(self, indexed_setup):
        network, _, _, pipeline, _ = indexed_setup
        window = Rectangle(0, 0, 150, 150)
        query = LCMSRQuery.create(["cafe"], delta=300.0, region=window)
        instance = build_instance(network, query, pipeline=pipeline)
        assert instance.num_candidate_nodes == 4
        assert instance.num_candidate_edges == 4
        assert all(node_id in instance.graph for node_id in instance.weights)

    def test_no_window_uses_whole_network(self, indexed_setup):
        network, _, _, pipeline, _ = indexed_setup
        query = LCMSRQuery.create(["cafe"], delta=300.0)
        instance = build_instance(network, query, pipeline=pipeline)
        assert instance.num_candidate_nodes == network.num_nodes

    def test_no_window_shares_graph_read_only(self, indexed_setup):
        # A window-less instance must reuse the given graph object, not deep-copy
        # it: solvers treat instance graphs as read-only.
        network, _, _, pipeline, _ = indexed_setup
        query = LCMSRQuery.create(["cafe"], delta=300.0)
        instance = build_instance(network, query, pipeline=pipeline)
        assert instance.graph is network

    def test_window_on_compact_network_yields_compact_view(self, indexed_setup):
        from repro.network.compact import CompactNetwork

        network, _, _, pipeline, _ = indexed_setup
        snapshot = CompactNetwork.from_network(network)
        window = Rectangle(0, 0, 150, 150)
        query = LCMSRQuery.create(["cafe"], delta=300.0, region=window)
        dict_instance = build_instance(network, query, pipeline=pipeline)
        csr_instance = build_instance(snapshot, query, pipeline=pipeline)
        assert isinstance(csr_instance.graph, CompactNetwork)
        assert csr_instance.weights == dict_instance.weights
        assert set(csr_instance.graph.node_ids()) == set(dict_instance.graph.node_ids())


class TestDerivedFacts:
    def test_sigma_and_totals(self, indexed_setup):
        network, _, _, pipeline, _ = indexed_setup
        query = LCMSRQuery.create(["cafe"], delta=300.0)
        instance = build_instance(network, query, pipeline=pipeline)
        assert instance.has_relevant_nodes
        assert instance.sigma_max() == max(instance.weights.values())
        assert instance.total_weight() == pytest.approx(sum(instance.weights.values()))
        assert instance.relevant_nodes() == set(instance.weights)
        assert instance.weight_of(-99) == 0.0

    def test_restricted_to(self, indexed_setup):
        network, _, _, pipeline, _ = indexed_setup
        query = LCMSRQuery.create(["cafe"], delta=300.0)
        instance = build_instance(network, query, pipeline=pipeline)
        some_node = next(iter(instance.weights))
        restricted = instance.restricted_to([some_node])
        assert restricted.num_candidate_nodes == 1
        assert set(restricted.weights) == {some_node}
