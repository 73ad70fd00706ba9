"""Tests for the relevance scorer (node weights) and its alternative scoring modes."""

from __future__ import annotations

import pytest

from repro.network.builders import grid_network
from repro.objects.corpus import ObjectCorpus
from repro.objects.geoobject import GeoTextualObject
from repro.objects.mapping import map_objects_to_network
from repro.textindex.relevance import RelevanceScorer, ScoringMode

from tests.conftest import make_small_corpus


@pytest.fixture
def mapped_small_corpus():
    corpus = make_small_corpus()
    network = grid_network(4, 4, spacing=100.0)
    mapping = map_objects_to_network(network, corpus)
    return corpus, network, mapping


class TestTextRelevanceMode:
    def test_node_weights_positive_only(self, mapped_small_corpus):
        corpus, _, mapping = mapped_small_corpus
        scorer = RelevanceScorer(corpus, mapping)
        weights = scorer.node_weights(["cafe"])
        assert weights
        assert all(value > 0 for value in weights.values())
        # Only the nodes of the two cafe objects carry weight.
        cafe_nodes = {mapping.node_of(0), mapping.node_of(1)}
        assert set(weights) == cafe_nodes

    def test_candidate_node_restriction(self, mapped_small_corpus):
        corpus, _, mapping = mapped_small_corpus
        scorer = RelevanceScorer(corpus, mapping)
        node_of_0 = mapping.node_of(0)
        weights = scorer.node_weights(["cafe"], candidate_nodes={node_of_0})
        assert set(weights) <= {node_of_0}

    def test_objects_on_same_node_sum(self):
        corpus = ObjectCorpus(
            [
                GeoTextualObject.create(0, 1.0, 1.0, ["cafe"]),
                GeoTextualObject.create(1, 1.5, 1.0, ["cafe"]),
            ]
        )
        network = grid_network(2, 2, spacing=100.0)
        mapping = map_objects_to_network(network, corpus)
        scorer = RelevanceScorer(corpus, mapping)
        single = scorer.object_score(corpus.get(0), ["cafe"])
        weights = scorer.node_weights(["cafe"])
        assert weights[mapping.node_of(0)] == pytest.approx(2 * single)


class TestRatingMode:
    def test_rating_used_when_matching(self, mapped_small_corpus):
        corpus, _, mapping = mapped_small_corpus
        scorer = RelevanceScorer(corpus, mapping, mode=ScoringMode.RATING_IF_MATCH)
        obj = corpus.get(0)
        assert scorer.object_score(obj, ["cafe"]) == obj.rating
        assert scorer.object_score(obj, ["museum"]) == 0.0


class TestLanguageModelMode:
    def test_irrelevant_objects_score_zero(self, mapped_small_corpus):
        corpus, _, mapping = mapped_small_corpus
        scorer = RelevanceScorer(corpus, mapping, mode=ScoringMode.LANGUAGE_MODEL)
        assert scorer.object_score(corpus.get(5), ["cafe"]) == 0.0

    def test_matching_objects_score_positive(self, mapped_small_corpus):
        corpus, _, mapping = mapped_small_corpus
        scorer = RelevanceScorer(corpus, mapping, mode=ScoringMode.LANGUAGE_MODEL)
        assert scorer.object_score(corpus.get(0), ["cafe"]) > 0.0

    def test_node_weights_nonempty(self, mapped_small_corpus):
        corpus, _, mapping = mapped_small_corpus
        scorer = RelevanceScorer(corpus, mapping, mode=ScoringMode.LANGUAGE_MODEL)
        weights = scorer.node_weights(["restaurant"])
        assert weights
        assert all(value > 0 for value in weights.values())

    def test_empty_keywords_score_zero(self, mapped_small_corpus):
        corpus, _, mapping = mapped_small_corpus
        scorer = RelevanceScorer(corpus, mapping, mode=ScoringMode.LANGUAGE_MODEL)
        assert scorer.object_score(corpus.get(0), []) == 0.0
