"""Tests for the object → nearest-node mapping."""

from __future__ import annotations

import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets.ny import build_ny_like
from repro.exceptions import DatasetError, GraphError
from repro.network.builders import grid_network
from repro.network.graph import RoadNetwork
from repro.objects.corpus import ObjectCorpus
from repro.objects.geoobject import GeoTextualObject
from repro.objects.mapping import map_objects_to_network, nearest_node


def brute_force_nearest(network: RoadNetwork, x: float, y: float) -> int:
    best = None
    best_dist = None
    for node in network.nodes():
        dist = (node.x - x) ** 2 + (node.y - y) ** 2
        if best_dist is None or dist < best_dist or (dist == best_dist and node.node_id < best):
            best, best_dist = node.node_id, dist
    return best


class TestNearestNode:
    def test_simple(self):
        network = grid_network(3, 3, spacing=10.0)
        assert nearest_node(network, 0.1, 0.1) == 0
        assert nearest_node(network, 21.0, 21.0) == 8

    def test_empty_network_raises(self):
        with pytest.raises(GraphError):
            nearest_node(RoadNetwork(), 0, 0)


class TestMapping:
    def test_objects_map_to_nearest_nodes(self):
        network = grid_network(3, 3, spacing=10.0)
        corpus = ObjectCorpus(
            [
                GeoTextualObject.create(0, 0.5, 0.5, ["a"]),
                GeoTextualObject.create(1, 19.0, 19.0, ["b"]),
                GeoTextualObject.create(2, 9.0, 1.0, ["c"]),
            ]
        )
        mapping = map_objects_to_network(network, corpus)
        assert mapping.node_of(0) == 0
        assert mapping.node_of(1) == 8
        assert mapping.node_of(2) == 1
        assert mapping.num_mapped == 3
        assert set(mapping.objects_at(0)) == {0}

    def test_unmapped_object_raises(self):
        network = grid_network(2, 2, spacing=10.0)
        mapping = map_objects_to_network(network, ObjectCorpus())
        with pytest.raises(DatasetError):
            mapping.node_of(5)
        assert mapping.objects_at(0) == []
        assert mapping.nodes_with_objects() == []

    def test_grid_accelerated_matches_brute_force(self):
        rng = random.Random(11)
        network = grid_network(8, 8, spacing=13.0, jitter=4.0, rng=rng)
        objects = [
            GeoTextualObject.create(i, rng.uniform(-10, 110), rng.uniform(-10, 110), ["x"])
            for i in range(120)
        ]
        mapping = map_objects_to_network(network, ObjectCorpus(objects))
        for obj in objects:
            expected = brute_force_nearest(network, obj.x, obj.y)
            expected_node = network.node(expected)
            mapped_node = network.node(mapping.node_of(obj.object_id))
            expected_dist = (expected_node.x - obj.x) ** 2 + (expected_node.y - obj.y) ** 2
            mapped_dist = (mapped_node.x - obj.x) ** 2 + (mapped_node.y - obj.y) ** 2
            assert mapped_dist == pytest.approx(expected_dist, rel=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(
        coords=st.lists(
            st.tuples(st.floats(-5, 105), st.floats(-5, 105)), min_size=1, max_size=20
        )
    )
    def test_mapping_property_every_object_assigned(self, coords):
        network = grid_network(5, 5, spacing=25.0)
        corpus = ObjectCorpus(
            [GeoTextualObject.create(i, x, y, ["t"]) for i, (x, y) in enumerate(coords)]
        )
        mapping = map_objects_to_network(network, corpus)
        assert mapping.num_mapped == len(coords)
        total_assigned = sum(len(v) for v in mapping.node_to_objects.values())
        assert total_assigned == len(coords)


class TestFarProbes:
    """Probes far outside the network map to the scanned nearest node, fast."""

    @pytest.fixture(scope="class")
    def network(self):
        return build_ny_like(rows=8, cols=8, block_size=120.0, num_objects=140,
                             num_clusters=5, seed=11).network

    @staticmethod
    def _centre(network):
        min_x, min_y, max_x, max_y = network.bounding_box()
        return (min_x + max_x) / 2.0, (min_y + max_y) / 2.0

    @pytest.mark.parametrize("distance", [2_000.0, 4_000.0, 8_000.0, 16_000.0])
    def test_far_probes_map_like_the_linear_scan(self, network, distance):
        cx, cy = self._centre(network)
        objects = [
            GeoTextualObject.create(
                bearing,
                cx + distance * math.cos(math.radians(bearing)),
                cy + distance * math.sin(math.radians(bearing)),
                ["x"],
            )
            for bearing in range(0, 360, 10)
        ]
        mapping = map_objects_to_network(network, ObjectCorpus(objects))
        assert {obj.object_id: mapping.node_of(obj.object_id) for obj in objects} == {
            obj.object_id: nearest_node(network, obj.x, obj.y) for obj in objects
        }

    def test_probe_a_thousand_km_out_returns_within_a_second(self, network):
        cx, cy = self._centre(network)
        far = GeoTextualObject.create(0, cx + 1e6, cy - 1e6, ["x"])
        start = time.perf_counter()
        mapping = map_objects_to_network(network, ObjectCorpus([far]))
        assert time.perf_counter() - start < 1.0
        assert mapping.node_of(0) == nearest_node(network, far.x, far.y)
