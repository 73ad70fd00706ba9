"""Tests for query-key normalization and the shared IndexBundle."""

from __future__ import annotations

import numpy as np
import pytest

from repro import LCMSREngine, build_ny_like
from repro.core.instance import build_instance
from repro.core.query import LCMSRQuery
from repro.exceptions import QueryError
from repro.network.subgraph import Rectangle
from repro.objects.mapping import map_objects_to_network
from repro.service.bundle import IndexBundle, scoring_mode_of
from repro.service.generations import Compactor, DeltaOverlay, apply_ops
from repro.service.keys import InstanceKey, ResultKey, normalize_keywords
from repro.textindex.relevance import ScoringMode


class TestNormalization:
    def test_keywords_sorted_deduplicated_lowercased(self):
        assert normalize_keywords([" Cafe", "restaurant", "CAFE", ""]) == (
            "cafe",
            "restaurant",
        )

    def test_equivalent_queries_share_result_key(self):
        window = Rectangle(0.0, 0.0, 100.0, 100.0)
        a = ResultKey.create(["cafe", "bar"], 100.0, window, 1, "TGEN",
                             ScoringMode.TEXT_RELEVANCE)
        b = ResultKey.create(["Bar", "cafe", "bar"], 100, Rectangle(0, 0, 100, 100),
                             1, "tgen", ScoringMode.TEXT_RELEVANCE)
        assert a == b
        assert hash(a) == hash(b)

    def test_distinct_parameters_distinct_keys(self):
        base = dict(keywords=["cafe"], delta=100.0, region=None, k=1,
                    algorithm="tgen", scoring_mode=ScoringMode.TEXT_RELEVANCE)
        key = ResultKey.create(**base)
        assert key != ResultKey.create(**{**base, "delta": 200.0})
        assert key != ResultKey.create(**{**base, "algorithm": "greedy"})
        assert key != ResultKey.create(**{**base, "k": 2})
        assert key != ResultKey.create(
            **{**base, "region": Rectangle(0.0, 0.0, 1.0, 1.0)}
        )

    def test_instance_key_ignores_delta_k_and_algorithm(self):
        a = ResultKey.create(["cafe"], 100.0, None, 1, "tgen",
                             ScoringMode.TEXT_RELEVANCE)
        b = ResultKey.create(["cafe"], 900.0, None, 3, "greedy",
                             ScoringMode.TEXT_RELEVANCE)
        assert a.instance_key == b.instance_key
        assert isinstance(a.instance_key, InstanceKey)


class TestIndexBundle:
    def test_build_populates_every_component(self, tiny_ny_dataset):
        bundle = IndexBundle.build(tiny_ny_dataset.network, tiny_ny_dataset.corpus)
        assert bundle.network is tiny_ny_dataset.network
        assert bundle.corpus is tiny_ny_dataset.corpus
        assert bundle.mapping.num_mapped == len(tiny_ny_dataset.corpus)
        assert bundle.columnar.num_objects == len(tiny_ny_dataset.corpus)
        assert bundle.build_seconds["total"] > 0
        assert {"mapping", "columnar", "freeze"} <= set(bundle.build_seconds)
        assert f"{bundle.columnar.num_postings} postings" in bundle.describe()

    def test_weight_pipeline_is_one_object_per_bundle(self, tiny_ny_dataset):
        bundle = IndexBundle.build(tiny_ny_dataset.network, tiny_ny_dataset.corpus)
        pipeline = bundle.weight_pipeline()
        assert pipeline.index is bundle.columnar
        assert pipeline.mode is bundle.scoring_mode
        # The pipeline owns the lazily built bounds; every query must reuse them.
        assert bundle.weight_pipeline() is pipeline
        assert bundle.weight_pipeline().bounds is pipeline.bounds

    def test_scoring_mode_value_string_scores_like_the_enum(self):
        dataset = build_ny_like(rows=12, cols=12, block_size=120.0, num_objects=260,
                                num_clusters=5, seed=3)
        answers = {}
        for mode in (ScoringMode.RATING_IF_MATCH, "rating_if_match"):
            bundle = IndexBundle.build(dataset.network, dataset.corpus, scoring_mode=mode)
            assert bundle.scoring_mode is ScoringMode.RATING_IF_MATCH
            engine = LCMSREngine.from_bundle(bundle, default_algorithm="greedy")
            answers[mode] = engine.query(["cafe", "restaurant"], delta=700.0)
        by_enum = answers[ScoringMode.RATING_IF_MATCH]
        by_value = answers["rating_if_match"]
        assert by_value.weight == by_enum.weight
        assert by_value.region.nodes == by_enum.region.nodes
        language_model = LCMSREngine(
            dataset.network, dataset.corpus, scoring_mode=ScoringMode.LANGUAGE_MODEL,
            default_algorithm="greedy",
        ).query(["cafe", "restaurant"], delta=700.0)
        assert by_value.weight != language_model.weight

    def test_unknown_scoring_mode_rejected(self, tiny_ny_dataset):
        with pytest.raises(QueryError, match="unknown scoring mode"):
            IndexBundle.build(tiny_ny_dataset.network, tiny_ny_dataset.corpus,
                              scoring_mode="bogus")
        with pytest.raises(QueryError, match="unknown scoring mode"):
            LCMSREngine(tiny_ny_dataset.network, tiny_ny_dataset.corpus,
                        scoring_mode="bogus")

    def test_engines_share_one_bundle(self, tiny_ny_dataset):
        engine = LCMSREngine(tiny_ny_dataset.network, tiny_ny_dataset.corpus)
        sibling = LCMSREngine.from_bundle(engine.bundle, default_algorithm="greedy")
        assert sibling.bundle is engine.bundle
        assert sibling.default_algorithm == "greedy"
        a = engine.query(["restaurant"], delta=1000.0, algorithm="tgen")
        b = sibling.query(["restaurant"], delta=1000.0, algorithm="tgen")
        assert a.region.nodes == b.region.nodes

    def test_from_bundle_rejects_unknown_default(self, tiny_ny_dataset):
        engine = LCMSREngine(tiny_ny_dataset.network, tiny_ny_dataset.corpus)
        with pytest.raises(QueryError):
            LCMSREngine.from_bundle(engine.bundle, default_algorithm="nope")


class TestScoringModeOf:
    @pytest.mark.parametrize("mode", list(ScoringMode))
    def test_enum_and_value_string_name_the_same_mode(self, mode):
        assert scoring_mode_of(mode) is mode
        assert scoring_mode_of(mode.value) is mode

    @pytest.mark.parametrize("value", ["bogus", "TEXT_RELEVANCE", "", None, 1])
    def test_anything_else_raises_query_error(self, value):
        with pytest.raises(QueryError, match="unknown scoring mode"):
            scoring_mode_of(value)


class TestBuildPaths:
    def test_streaming_build_accepts_a_value_string(self, tiny_ny_dataset):
        eager = IndexBundle.build(tiny_ny_dataset.network, tiny_ny_dataset.corpus,
                                  scoring_mode=ScoringMode.LANGUAGE_MODEL)
        streamed = IndexBundle.build_streaming(
            tiny_ny_dataset.network, iter(tiny_ny_dataset.corpus),
            scoring_mode="language_model",
        )
        assert streamed.scoring_mode is ScoringMode.LANGUAGE_MODEL
        assert "accumulate" in streamed.build_seconds
        keywords = ["cafe", "restaurant"]
        assert list(streamed.weight_pipeline().node_weights(keywords).items()) == \
            list(eager.weight_pipeline().node_weights(keywords).items())

    def test_streaming_build_rejects_a_bad_mode_before_reading_objects(
        self, tiny_ny_dataset
    ):
        consumed = []

        def objects():
            for obj in tiny_ny_dataset.corpus:
                consumed.append(obj.object_id)
                yield obj

        with pytest.raises(QueryError, match="unknown scoring mode"):
            IndexBundle.build_streaming(tiny_ny_dataset.network, objects(),
                                        scoring_mode="bogus")
        assert consumed == []

    def test_from_dataset_reuses_the_dataset_mapping(self, tiny_ny_dataset):
        bundle = IndexBundle.from_dataset(tiny_ny_dataset)
        assert bundle.mapping.node_to_objects == tiny_ny_dataset.mapping.node_to_objects
        assert bundle.mapping.object_to_node == tiny_ny_dataset.mapping.object_to_node
        assert bundle.scoring_mode is ScoringMode.TEXT_RELEVANCE
        assert "mapping" not in bundle.build_seconds
        assert {"columnar", "freeze", "total"} <= set(bundle.build_seconds)

    def test_grid_resolution_is_kept_and_sizes_nothing(self, tiny_ny_dataset):
        coarse = IndexBundle.build(tiny_ny_dataset.network, tiny_ny_dataset.corpus,
                                   grid_resolution=4)
        default = IndexBundle.build(tiny_ny_dataset.network, tiny_ny_dataset.corpus)
        assert (coarse.grid_resolution, default.grid_resolution) == (4, 48)
        for name, array in default.columnar.arrays().items():
            assert np.array_equal(coarse.columnar.arrays()[name], array), name
        a = LCMSREngine.from_bundle(coarse).query(["restaurant"], delta=1000.0)
        b = LCMSREngine.from_bundle(default).query(["restaurant"], delta=1000.0)
        assert a.region.nodes == b.region.nodes
        assert a.weight == b.weight


def _bundle_and_build_mapping(origin, dataset, root):
    """A bundle of the given origin and the mapping its columns were built from."""
    network, corpus = dataset.network, dataset.corpus
    if origin == "build":
        return IndexBundle.build(network, corpus), map_objects_to_network(network, corpus)
    if origin == "build_streaming":
        return (IndexBundle.build_streaming(network, iter(corpus)),
                map_objects_to_network(network, corpus))
    if origin == "from_dataset":
        return IndexBundle.from_dataset(dataset), dataset.mapping
    IndexBundle.from_dataset(dataset).save(root)
    if origin == "loaded":
        return IndexBundle.load(root), dataset.mapping
    # A compacted generation: fold a remove, a move and an add into gen-0001.
    engine = LCMSREngine.from_artifact(root)
    overlay = DeltaOverlay(engine.bundle)
    first, second = sorted(corpus.object_ids())[:2]
    moved = corpus.get(second)
    apply_ops(overlay, [
        {"op": "remove", "id": first},
        {"op": "update", "id": second, "x": moved.x + 240.0, "y": moved.y - 130.0,
         "keywords": dict(moved.keywords), "rating": moved.rating},
        {"op": "add", "id": 90001, "x": 350.0, "y": 350.0,
         "keywords": ["cafe", "bar"], "rating": 2.5},
    ])
    engine.attach_overlay(overlay)
    report = Compactor(engine, root).compact()
    built = engine.bundle  # the compactor's in-memory build, now swapped in
    return IndexBundle.load(report.path), map_objects_to_network(built.network,
                                                                 built.corpus)


class TestMappingView:
    """``bundle.mapping`` is read off the scoring columns, not stored beside them."""

    @pytest.mark.parametrize(
        "origin", ["build", "build_streaming", "from_dataset", "loaded", "compacted"]
    )
    def test_mapping_equals_the_build_time_mapping(self, origin, tiny_ny_dataset,
                                                   tmp_path):
        bundle, built_from = _bundle_and_build_mapping(origin, tiny_ny_dataset,
                                                       tmp_path / "artifact")
        mapping = bundle.mapping
        # Key orders included: dict item lists compare positionally.
        assert list(mapping.node_to_objects.items()) == \
            list(built_from.node_to_objects.items())
        assert list(mapping.object_to_node.items()) == \
            list(built_from.object_to_node.items())
        assert bundle.mapping is mapping  # derived once, then cached


class TestBundleFreezing:
    def test_build_freezes_network_once(self, tiny_ny_dataset):
        from repro.network.compact import CompactNetwork

        bundle = IndexBundle.build(tiny_ny_dataset.network, tiny_ny_dataset.corpus)
        assert isinstance(bundle.compact, CompactNetwork)
        assert bundle.graph_view() is bundle.compact
        assert bundle.compact.num_nodes == bundle.network.num_nodes
        assert bundle.compact.num_edges == bundle.network.num_edges
        assert "freeze" in bundle.build_seconds
        assert "csr backend" in bundle.describe()

    def test_engine_queries_traverse_the_snapshot(self, tiny_ny_dataset):
        engine = LCMSREngine(tiny_ny_dataset.network, tiny_ny_dataset.corpus)
        assert engine.graph_view is engine.bundle.compact
        instance = engine.build_instance(LCMSRQuery.create(["restaurant"], delta=1000.0))
        # Window-less instances share the frozen snapshot directly.
        assert instance.graph is engine.graph_view

    def test_backends_answer_identically(self, tiny_ny_dataset):
        engine = LCMSREngine(tiny_ny_dataset.network, tiny_ny_dataset.corpus)
        query = LCMSRQuery.create(["restaurant"], delta=1000.0)
        dict_backed = build_instance(
            tiny_ny_dataset.network, query, pipeline=engine.bundle.weight_pipeline()
        )
        for algorithm in ("greedy", "tgen", "app"):
            a = engine.query(["restaurant"], delta=1000.0, algorithm=algorithm)
            b = engine.solver(algorithm).solve(dict_backed)
            assert a.region.nodes == b.region.nodes
            assert a.region.edges == b.region.edges
            assert a.weight == pytest.approx(b.weight, abs=1e-12)
