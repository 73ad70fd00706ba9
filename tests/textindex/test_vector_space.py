"""Tests for the vector-space model (paper Equations 1 and 2)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.objects.corpus import ObjectCorpus
from repro.objects.geoobject import GeoTextualObject
from repro.textindex.vector_space import (
    VectorSpaceModel,
    idf_weight,
    tf_weight,
)

from tests.conftest import make_small_corpus


class TestWeightFormulas:
    def test_idf_formula(self):
        assert idf_weight(100, 10) == pytest.approx(math.log(1 + 10.0))
        assert idf_weight(100, 100) == pytest.approx(math.log(2.0))

    def test_idf_zero_document_frequency(self):
        assert idf_weight(100, 0) == 0.0

    def test_tf_formula(self):
        assert tf_weight(1) == pytest.approx(1.0)
        assert tf_weight(3) == pytest.approx(1.0 + math.log(3))
        assert tf_weight(0) == 0.0

    def test_rarer_terms_get_higher_idf(self):
        assert idf_weight(1000, 5) > idf_weight(1000, 500)


class TestScoring:
    def test_zero_when_no_overlap(self):
        corpus = make_small_corpus()
        vsm = VectorSpaceModel(corpus)
        assert vsm.score_keywords(corpus.get(5), ["cafe"]) == 0.0

    def test_positive_when_overlap(self):
        corpus = make_small_corpus()
        vsm = VectorSpaceModel(corpus)
        assert vsm.score_keywords(corpus.get(0), ["cafe"]) > 0.0

    def test_matches_manual_equation_1(self):
        # Two-object corpus computed by hand against Equation 1.
        corpus = ObjectCorpus(
            [
                GeoTextualObject.create(0, 0, 0, ["cafe", "coffee"]),
                GeoTextualObject.create(1, 1, 1, ["cafe"]),
            ]
        )
        vsm = VectorSpaceModel(corpus)
        # Query {cafe}: w_Q = ln(1 + 2/2) = ln 2; W_Q = ln 2.
        # Object 0: tf weights 1 for both terms, W_o = sqrt(2), w_{o,cafe} = 1.
        expected = (math.log(2) * 1.0) / (math.log(2) * math.sqrt(2))
        assert vsm.score_keywords(0, ["cafe"]) == pytest.approx(expected)
        # Object 1: single term, W_o = 1 -> score = 1.
        assert vsm.score_keywords(1, ["cafe"]) == pytest.approx(1.0)

    def test_equation_2_decomposition(self):
        # score = (1 / W_Q) * sum over matched terms of w_{Q,t} * wto(t).
        corpus = make_small_corpus()
        vsm = VectorSpaceModel(corpus)
        query = vsm.query_vector(["cafe", "coffee"])
        obj = corpus.get(0)
        manual = sum(
            query.weights[t] * vsm.object_term_weight(0, t)
            for t in query.terms
        ) / query.norm
        assert vsm.score(obj, query) == pytest.approx(manual)

    def test_more_matched_keywords_scores_higher(self):
        corpus = make_small_corpus()
        vsm = VectorSpaceModel(corpus)
        one = vsm.score_keywords(0, ["cafe"])
        two = vsm.score_keywords(0, ["cafe", "coffee"])
        assert two > 0
        assert one > 0
        # With both terms matched the numerator gains a strictly positive term while
        # the query norm grows; the combined score must remain positive and the
        # object must outrank an object matching only one of the two keywords.
        other = vsm.score_keywords(1, ["cafe", "coffee"])  # object 1 has only "cafe"
        assert two > other

    def test_batch_scores_skips_zeroes(self):
        corpus = make_small_corpus()
        vsm = VectorSpaceModel(corpus)
        scores = vsm.batch_scores(list(corpus), ["cafe"])
        assert set(scores) == {0, 1}
        assert all(value > 0 for value in scores.values())

    def test_unknown_query_term_contributes_nothing(self):
        corpus = make_small_corpus()
        vsm = VectorSpaceModel(corpus)
        base = vsm.score_keywords(0, ["cafe"])
        with_unknown = vsm.score_keywords(0, ["cafe", "zzzunknown"])
        # The unknown term has zero IDF, so the score is unchanged.
        assert with_unknown == pytest.approx(base)

    def test_query_vector_dedupes_keywords(self):
        corpus = make_small_corpus()
        vsm = VectorSpaceModel(corpus)
        query = vsm.query_vector(["cafe", "Cafe", " cafe "])
        assert query.terms == ("cafe",)


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        descriptions=st.lists(
            st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), min_size=1, max_size=6),
            min_size=2,
            max_size=12,
        ),
        query=st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), min_size=1, max_size=3),
    )
    def test_scores_are_non_negative_and_bounded(self, descriptions, query):
        corpus = ObjectCorpus(
            [GeoTextualObject.create(i, i, i, terms) for i, terms in enumerate(descriptions)]
        )
        vsm = VectorSpaceModel(corpus)
        for obj in corpus:
            score = vsm.score_keywords(obj, query)
            assert score >= 0.0
            # Cosine-style normalisation keeps each object's score bounded by ~1.
            assert score <= 1.0 + 1e-9
