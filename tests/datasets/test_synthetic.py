"""Tests for synthetic object generation and dataset assembly."""

from __future__ import annotations

import pytest

from repro.datasets.synthetic import (
    SyntheticDataset,
    assemble_dataset,
    generate_objects_on_network,
    iter_objects_on_network,
)
from repro.datasets.vocab import PLACES_VOCABULARY
from repro.exceptions import DatasetError
from repro.network.builders import grid_network


@pytest.fixture(scope="module")
def network():
    return grid_network(10, 10, spacing=100.0)


class TestObjectGeneration:
    def test_counts_and_determinism(self, network):
        a = generate_objects_on_network(network, 300, seed=5)
        b = generate_objects_on_network(network, 300, seed=5)
        assert len(a) == 300
        assert len(b) == 300
        assert {o.object_id for o in a} == set(range(300))
        coords_a = sorted((o.x, o.y) for o in a)
        coords_b = sorted((o.x, o.y) for o in b)
        assert coords_a == coords_b

    def test_different_seed_different_objects(self, network):
        a = generate_objects_on_network(network, 100, seed=5)
        b = generate_objects_on_network(network, 100, seed=6)
        assert sorted((o.x, o.y) for o in a) != sorted((o.x, o.y) for o in b)

    def test_objects_near_network_extent(self, network):
        corpus = generate_objects_on_network(network, 200, seed=1)
        min_x, min_y, max_x, max_y = network.bounding_box()
        for obj in corpus:
            assert min_x - 200 <= obj.x <= max_x + 200
            assert min_y - 200 <= obj.y <= max_y + 200

    def test_head_terms_are_frequent(self, network):
        corpus = generate_objects_on_network(network, 500, seed=2)
        head_df = max(corpus.document_frequency(t) for t in PLACES_VOCABULARY.terms[:20])
        assert head_df >= 20  # the hot-spot signature terms are common

    def test_invalid_parameters(self, network):
        with pytest.raises(DatasetError):
            generate_objects_on_network(network, 0)
        with pytest.raises(DatasetError):
            generate_objects_on_network(network, 10, cluster_fraction=1.5)
        with pytest.raises(DatasetError):
            generate_objects_on_network(network, 10, cluster_fraction=0.8, hub_fraction=0.5)

    def test_iterator_emits_exactly_the_collected_corpus(self, network):
        """The streaming generator and the eager builder are the same stream."""
        collected = generate_objects_on_network(network, 300, seed=5)
        streamed = list(iter_objects_on_network(network, 300, seed=5))
        assert len(streamed) == len(collected)
        by_id = {obj.object_id: obj for obj in collected}
        for obj in streamed:
            twin = by_id[obj.object_id]
            assert (obj.x, obj.y, obj.rating) == (twin.x, twin.y, twin.rating)
            assert obj.keywords == twin.keywords

    def test_iterator_validates_before_first_yield(self, network):
        with pytest.raises(DatasetError):
            iter_objects_on_network(network, 0)


class TestAssembledDataset:
    def test_assemble_wires_everything(self, network):
        corpus = generate_objects_on_network(network, 200, seed=3)
        dataset = assemble_dataset("test-ds", network, corpus, PLACES_VOCABULARY)
        assert isinstance(dataset, SyntheticDataset)
        assert dataset.name == "test-ds"
        assert dataset.mapping.num_mapped == 200
        description = dataset.describe()
        assert description["objects"] == 200
        assert description["nodes"] == network.num_nodes
        extent = dataset.extent
        assert extent.area > 0
