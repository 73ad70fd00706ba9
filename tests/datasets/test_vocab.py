"""Tests for the Zipfian vocabularies."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.datasets.vocab import (
    FLICKR_VOCABULARY,
    PLACES_VOCABULARY,
    Vocabulary,
)
from repro.exceptions import DatasetError


class TestConstruction:
    def test_head_terms_first(self):
        vocab = Vocabulary(head_terms=["alpha", "beta"], num_tail_terms=5)
        assert vocab.terms[:2] == ["alpha", "beta"]
        assert len(vocab.terms) == 7

    def test_duplicate_head_terms_deduplicated(self):
        vocab = Vocabulary(head_terms=["a", "a", "b"], num_tail_terms=0)
        assert len(vocab.terms) == 2

    def test_invalid_parameters(self):
        with pytest.raises(DatasetError):
            Vocabulary(head_terms=["a"], num_tail_terms=-1)
        with pytest.raises(DatasetError):
            Vocabulary(head_terms=[], num_tail_terms=0)

    def test_default_vocabularies(self):
        assert "restaurant" in PLACES_VOCABULARY.terms[:50]
        assert "cafe" in PLACES_VOCABULARY.terms[:50]
        assert len(FLICKR_VOCABULARY.terms) > len(PLACES_VOCABULARY.terms)


class TestSampling:
    def test_deterministic_given_rng(self):
        vocab = Vocabulary(head_terms=["a", "b", "c"], num_tail_terms=50)
        first = [vocab.sample_term(random.Random(3)) for _ in range(5)]
        second = [vocab.sample_term(random.Random(3)) for _ in range(5)]
        assert first == second

    def test_zipf_skew_head_dominates(self):
        vocab = Vocabulary(head_terms=["top", "second"], num_tail_terms=500, zipf_exponent=1.1)
        rng = random.Random(7)
        counts = Counter(vocab.sample_term(rng) for _ in range(5000))
        assert counts["top"] > counts["second"]
        assert counts["top"] > 5000 / len(vocab.terms) * 5  # far above uniform share

    def test_description_lengths(self):
        vocab = Vocabulary(head_terms=["a"], num_tail_terms=20)
        rng = random.Random(1)
        for _ in range(50):
            description = vocab.sample_description(rng, 2, 4)
            assert 2 <= len(description) <= 4

    def test_invalid_description_bounds(self):
        vocab = Vocabulary(head_terms=["a"], num_tail_terms=0)
        with pytest.raises(DatasetError):
            vocab.sample_description(random.Random(1), 0, 2)
        with pytest.raises(DatasetError):
            vocab.sample_description(random.Random(1), 3, 2)
