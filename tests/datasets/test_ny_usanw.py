"""Tests for the NY-like and USANW-like dataset builders (the paper's two workloads)."""

from __future__ import annotations

import pytest

from repro.network.stats import compute_stats


class TestNYLike:
    def test_headline_shape(self, tiny_ny_dataset):
        stats = compute_stats(tiny_ny_dataset.network)
        assert stats.num_nodes == 400  # 20 x 20 builder fixture
        assert stats.num_components == 1
        assert 2.0 <= stats.average_degree <= 4.5
        assert len(tiny_ny_dataset.corpus) == 900

    def test_objects_mapped_and_indexed(self, tiny_ny_dataset):
        assert tiny_ny_dataset.mapping.num_mapped == len(tiny_ny_dataset.corpus)
        assert len(tiny_ny_dataset.mapping.node_to_objects) > 10

    def test_places_vocabulary_used(self, tiny_ny_dataset):
        vocabulary = tiny_ny_dataset.corpus.vocabulary()
        assert any(term in vocabulary for term in ("restaurant", "cafe", "bar", "pizza"))

    def test_co_location_present(self, tiny_ny_dataset):
        """Some node must host several objects sharing a category — the co-location
        phenomenon the query exploits (paper Section 1, point three)."""
        best = 0
        for node_id, object_ids in tiny_ny_dataset.mapping.node_to_objects.items():
            best = max(best, len(object_ids))
        assert best >= 3


class TestUSANWLike:
    def test_headline_shape(self, tiny_usanw_dataset):
        stats = compute_stats(tiny_usanw_dataset.network)
        assert stats.num_nodes == 400
        assert stats.num_components == 1
        assert len(tiny_usanw_dataset.corpus) == 400

    def test_sparser_than_ny(self, tiny_ny_dataset, tiny_usanw_dataset):
        ny_stats = compute_stats(tiny_ny_dataset.network)
        usanw_stats = compute_stats(tiny_usanw_dataset.network)
        # The USANW-like network has lower density (objects per node and average degree)
        ny_density = len(tiny_ny_dataset.corpus) / ny_stats.num_nodes
        usanw_density = len(tiny_usanw_dataset.corpus) / usanw_stats.num_nodes
        assert usanw_density <= ny_density

    def test_flickr_vocabulary_used(self, tiny_usanw_dataset):
        vocabulary = tiny_usanw_dataset.corpus.vocabulary()
        assert any(term in vocabulary for term in ("sunset", "hiking", "beach", "lake"))

    def test_datasets_are_deterministic(self):
        from repro.datasets.usanw import build_usanw_like

        a = build_usanw_like(num_nodes=150, extent=3000.0, num_objects=150, num_clusters=4, seed=8)
        b = build_usanw_like(num_nodes=150, extent=3000.0, num_objects=150, num_clusters=4, seed=8)
        assert a.network.num_edges == b.network.num_edges
        assert sorted(o.terms for o in a.corpus) == sorted(o.terms for o in b.corpus)
