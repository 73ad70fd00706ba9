"""Tests for the object corpus and its statistics."""

from __future__ import annotations

import pytest

from repro.exceptions import DatasetError
from repro.network.subgraph import Rectangle
from repro.objects.corpus import ObjectCorpus
from repro.objects.geoobject import GeoTextualObject

from tests.conftest import make_small_corpus


class TestMutation:
    def test_add_and_len(self):
        corpus = ObjectCorpus()
        corpus.add(GeoTextualObject.create(1, 0, 0, ["cafe"]))
        assert len(corpus) == 1
        assert 1 in corpus

    def test_duplicate_id_rejected(self):
        corpus = ObjectCorpus()
        corpus.add(GeoTextualObject.create(1, 0, 0, ["cafe"]))
        with pytest.raises(DatasetError):
            corpus.add(GeoTextualObject.create(1, 1, 1, ["bar"]))

    def test_constructor_accepts_iterable(self):
        objects = [GeoTextualObject.create(i, i, i, ["x"]) for i in range(3)]
        corpus = ObjectCorpus(objects)
        assert len(corpus) == 3

    def test_get_unknown_raises(self):
        with pytest.raises(DatasetError):
            ObjectCorpus().get(9)


class TestStatistics:
    def test_document_frequency(self):
        corpus = make_small_corpus()
        assert corpus.document_frequency("cafe") == 2
        assert corpus.document_frequency("restaurant") == 2
        assert corpus.document_frequency("pharmacy") == 1
        assert corpus.document_frequency("missing") == 0

    def test_document_frequency_counts_objects_not_occurrences(self):
        corpus = ObjectCorpus()
        corpus.add(GeoTextualObject.create(1, 0, 0, ["cafe", "cafe", "cafe"]))
        assert corpus.document_frequency("cafe") == 1

    def test_vocabulary(self):
        corpus = make_small_corpus()
        assert "coffee" in corpus.vocabulary()
        assert corpus.vocabulary_size() == len(corpus.vocabulary())

    def test_most_frequent_terms(self):
        corpus = make_small_corpus()
        top = corpus.most_frequent_terms(2)
        assert len(top) == 2
        assert top[0][1] >= top[1][1]


class TestFiltering:
    def test_objects_in_rectangle(self):
        corpus = make_small_corpus()
        window = Rectangle(0, 0, 100, 100)
        inside = corpus.objects_in_rectangle(window)
        assert {obj.object_id for obj in inside} == {0}

    def test_terms_in_rectangle(self):
        corpus = make_small_corpus()
        window = Rectangle(0, 0, 200, 200)
        frequencies = corpus.terms_in_rectangle(window)
        assert frequencies["cafe"] == 2
        assert "museum" not in frequencies
