"""Tests for the query-workload generator (paper Section 7.1)."""

from __future__ import annotations

import pytest

from repro.datasets.queries import QueryWorkloadGenerator, WorkloadSpec, generate_workload


class TestWorkloadGeneration:
    def test_counts_and_shape(self, tiny_ny_dataset):
        queries = generate_workload(
            tiny_ny_dataset, num_queries=10, num_keywords=2, delta=1500.0, area_km2=1.0, seed=3
        )
        assert len(queries) == 10
        for query in queries:
            assert len(query.keywords) == 2
            assert query.delta == 1500.0
            assert query.region is not None
            assert query.region.area == pytest.approx(1.0 * 1e6, rel=1e-6)

    def test_deterministic_given_seed(self, tiny_ny_dataset):
        a = generate_workload(tiny_ny_dataset, num_queries=5, seed=9, area_km2=1.0, delta=1500.0)
        b = generate_workload(tiny_ny_dataset, num_queries=5, seed=9, area_km2=1.0, delta=1500.0)
        assert [q.keywords for q in a] == [q.keywords for q in b]
        assert [q.region.min_x for q in a] == [q.region.min_x for q in b]

    def test_different_seeds_differ(self, tiny_ny_dataset):
        a = generate_workload(tiny_ny_dataset, num_queries=5, seed=9, area_km2=1.0, delta=1500.0)
        b = generate_workload(tiny_ny_dataset, num_queries=5, seed=10, area_km2=1.0, delta=1500.0)
        assert [q.keywords for q in a] != [q.keywords for q in b]

    def test_keywords_occur_inside_the_query_area(self, tiny_ny_dataset):
        queries = generate_workload(
            tiny_ny_dataset, num_queries=8, num_keywords=3, delta=1500.0, area_km2=1.0, seed=4
        )
        for query in queries:
            in_area = tiny_ny_dataset.corpus.terms_in_rectangle(query.region)
            for keyword in query.keywords:
                assert keyword in in_area

    def test_window_clamped_to_extent(self, tiny_ny_dataset):
        queries = generate_workload(
            tiny_ny_dataset, num_queries=20, num_keywords=1, delta=1500.0, area_km2=1.0, seed=5
        )
        extent = tiny_ny_dataset.extent
        for query in queries:
            assert query.region.min_x >= extent.min_x - 1e-6
            assert query.region.max_x <= extent.max_x + 1e-6

    def test_distinct_keywords_per_query(self, tiny_ny_dataset):
        queries = generate_workload(
            tiny_ny_dataset, num_queries=10, num_keywords=3, delta=1500.0, area_km2=1.0, seed=6
        )
        for query in queries:
            assert len(set(query.keywords)) == 3

    def test_spec_dataclass_defaults(self):
        spec = WorkloadSpec()
        assert spec.num_queries == 50
        assert spec.num_keywords == 3
