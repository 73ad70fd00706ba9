"""Tests for the high-level LCMSREngine facade."""

from __future__ import annotations

import pytest

from repro import LCMSREngine, Rectangle
from repro.exceptions import QueryError
from repro.textindex.relevance import ScoringMode

from tests.conftest import assert_same_rows


@pytest.fixture(scope="module")
def engine(tiny_ny_dataset):
    return LCMSREngine(tiny_ny_dataset.network, tiny_ny_dataset.corpus)


class TestConfiguration:
    def test_config_errors_raised_before_index_build(self, tiny_ny_dataset):
        # Fail-fast ordering proof: indexing without a network would raise
        # AttributeError, so getting QueryError shows validation ran before any
        # build work started.
        with pytest.raises(QueryError):
            LCMSREngine(None, tiny_ny_dataset.corpus, scoring_mode="bogus")

    def test_default_algorithm_property(self, engine):
        assert engine.default_algorithm == "tgen"

    def test_unknown_algorithm_at_query_time(self, engine):
        with pytest.raises(QueryError):
            engine.solver("does-not-exist")

    def test_unknown_algorithm_fails_before_the_instance_build(self, engine, monkeypatch):
        def build_instance(*args, **kwargs):
            raise AssertionError("an instance was built for an unknown algorithm")

        monkeypatch.setattr(engine, "build_instance", build_instance)
        with pytest.raises(QueryError, match="unknown algorithm"):
            engine.query(["cafe"], delta=500.0, algorithm="nope")
        with pytest.raises(QueryError, match="unknown algorithm"):
            engine.query_topk(["cafe"], delta=500.0, k=2, algorithm="nope")

    def test_accessors(self, engine, tiny_ny_dataset):
        assert_same_rows(engine.graph_view, tiny_ny_dataset.network)
        assert engine.corpus is tiny_ny_dataset.corpus
        assert engine.mapping.num_mapped == len(tiny_ny_dataset.corpus)


class TestQuerying:
    def test_query_returns_feasible_region(self, engine):
        result = engine.query(["restaurant", "cafe"], delta=1200.0, algorithm="tgen")
        assert result.region.satisfies(1200.0)
        assert result.weight > 0
        result.region.validate(engine.graph_view)

    def test_query_with_window(self, engine, tiny_ny_dataset):
        extent = tiny_ny_dataset.extent
        window = Rectangle(extent.min_x, extent.min_y,
                           extent.min_x + 1200.0, extent.min_y + 1200.0)
        result = engine.query(["restaurant"], delta=800.0, region=window, algorithm="greedy")
        for node_id in result.region.nodes:
            assert window.contains(*engine.graph_view.coords(node_id))

    def test_algorithms_agree_on_rough_quality(self, engine):
        tgen = engine.query(["cafe", "coffee"], delta=1200.0, algorithm="tgen")
        greedy = engine.query(["cafe", "coffee"], delta=1200.0, algorithm="greedy")
        app = engine.query(["cafe", "coffee"], delta=1200.0, algorithm="app")
        best = max(tgen.weight, greedy.weight, app.weight)
        assert best > 0
        assert greedy.weight <= best + 1e-9
        assert app.weight >= 0.5 * best  # APP carries an approximation guarantee

    def test_query_with_unknown_keywords_returns_empty(self, engine):
        result = engine.query(["zzzz-not-a-term"], delta=1000.0, algorithm="tgen")
        assert result.is_empty

    def test_a_bare_keyword_string_is_refused(self, engine):
        # Read as an iterable, "cafe" would be the query {a, c, e, f}.
        with pytest.raises(QueryError, match="not the string 'cafe'"):
            engine.query("cafe", delta=800.0, algorithm="greedy")
        assert not engine.query(["cafe"], delta=800.0, algorithm="greedy").is_empty

    def test_topk_query(self, engine):
        topk = engine.query_topk(["restaurant"], delta=1000.0, k=3, algorithm="tgen")
        assert 1 <= len(topk) <= 3
        node_sets = [r.region.nodes for r in topk]
        assert len(set(node_sets)) == len(node_sets)

    def test_rating_scoring_mode(self, tiny_ny_dataset):
        engine = LCMSREngine(
            tiny_ny_dataset.network,
            tiny_ny_dataset.corpus,
            scoring_mode=ScoringMode.RATING_IF_MATCH,
        )
        result = engine.query(["restaurant"], delta=1000.0, algorithm="greedy")
        assert result.weight >= 0.0
