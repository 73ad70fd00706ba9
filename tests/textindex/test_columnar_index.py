"""The columnar scoring index as an inverted index and a spatial filter.

Every query scores through :class:`ColumnarScoringIndex`: its CSR postings are
the term → object inverted lists, and the coordinate masks of
:class:`WeightPipeline` are the window filter. These tests pin both roles on a
hand-written corpus whose postings, windows and per-node sums can be read off
directly; ``test_columnar.py`` checks the same pipeline bit for bit against the
object-loop reference on random corpora.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.exceptions import IndexError_
from repro.network.builders import grid_network
from repro.network.subgraph import Rectangle
from repro.objects.corpus import ObjectCorpus
from repro.objects.geoobject import GeoTextualObject
from repro.objects.mapping import NodeObjectMap, map_objects_to_network
from repro.textindex.columnar import ColumnarScoringIndex, WeightPipeline
from repro.textindex.relevance import LanguageModelScorer, RelevanceScorer, ScoringMode
from repro.textindex.vector_space import VectorSpaceModel

from tests.conftest import make_small_corpus


def index_over(corpus: ObjectCorpus):
    """Network, mapping and columnar index of ``corpus`` on a 4x4 / 100 m grid."""
    network = grid_network(4, 4, spacing=100.0)
    mapping = map_objects_to_network(network, corpus)
    return network, mapping, ColumnarScoringIndex.build(corpus, mapping, network.coords)


@pytest.fixture
def small():
    corpus = make_small_corpus()
    network, mapping, index = index_over(corpus)
    return corpus, network, mapping, index


def object_ids_of(index: ColumnarScoringIndex, rows) -> set:
    return {int(index.object_ids[row]) for row in rows}


def object_ids_of_list(index: ColumnarScoringIndex, rows) -> list:
    return [int(index.object_ids[row]) for row in rows]


def postings(index: ColumnarScoringIndex, term: str):
    """``(rows, tfidf, tf)`` of a known ``term``, sliced off the posting columns."""
    tid = index.term_id(term)
    start, end = int(index.post_indptr[tid]), int(index.post_indptr[tid + 1])
    return index.post_rows[start:end], index.post_tfidf[start:end], index.post_tf[start:end]


def assert_cell_ordered_postings(index: ColumnarScoringIndex) -> None:
    """Within every term, (post_cell, row) strictly ascends, and every
    posting's cell is its object's ``obj_cell``."""
    cells = np.asarray(index.post_cell)
    assert np.array_equal(cells, np.asarray(index.obj_cell)[index.post_rows])
    indptr = np.asarray(index.post_indptr)
    for tid, term in enumerate(index.terms):
        start, end = int(indptr[tid]), int(indptr[tid + 1])
        keys = cells[start:end].astype(np.int64) * index.num_objects + index.post_rows[start:end]
        assert np.all(np.diff(keys) > 0), term


def shared_node_corpus() -> ObjectCorpus:
    """Three objects around node 0 (0, 0), one at node 3 (300, 0), one far off."""
    return ObjectCorpus(
        [
            GeoTextualObject.create(0, 5.0, 5.0, ["cafe", "cafe", "bar"], rating=2.0),
            GeoTextualObject.create(1, -5.0, 8.0, ["cafe"], rating=4.5),
            GeoTextualObject.create(2, 10.0, -3.0, ["bar", "pizza"], rating=0.0),
            GeoTextualObject.create(3, 300.0, 4.0, ["cafe", "museum"], rating=3.0),
            GeoTextualObject.create(4, 290.0, 300.0, ["museum"], rating=1.0),
        ]
    )


class TestPostings:
    def test_vocabulary_and_counts(self, small):
        corpus, _, _, index = small
        assert index.terms == tuple(sorted(corpus.vocabulary()))
        assert index.term_id("cafe") is not None
        assert index.num_objects == len(corpus)
        assert index.global_num_objects == len(corpus)
        assert index.num_postings == sum(len(obj.terms) for obj in corpus)

    def test_postings_contain_expected_objects(self, small):
        _, _, _, index = small
        rows, tfidf, tf = postings(index, "cafe")
        assert object_ids_of(index, rows) == {0, 1}
        assert np.all(tfidf > 0.0)
        assert np.all(tf == 1.0)

    def test_postings_rows_ascend_within_every_term(self, small):
        _, _, _, index = small
        assert_cell_ordered_postings(index)

    def test_unknown_term_has_no_postings(self, small):
        _, _, _, index = small
        assert index.term_id("zzz") is None
        assert index.document_frequency("zzz") == 0

    def test_posting_weights_equal_the_vector_space_model(self, small):
        corpus, _, _, index = small
        vsm = VectorSpaceModel(corpus)
        for term in index.terms:
            rows, tfidf, _ = postings(index, term)
            for row, weight in zip(rows.tolist(), tfidf.tolist()):
                object_id = int(index.object_ids[row])
                assert weight == vsm.object_term_weight(object_id, term)

    def test_posting_term_frequencies_count_repeated_terms(self):
        corpus = shared_node_corpus()
        _, _, index = index_over(corpus)
        rows, _, tf = postings(index, "cafe")
        by_object = dict(zip(object_ids_of_list(index, rows), tf.tolist()))
        assert by_object == {0: 2.0, 1: 1.0, 3: 1.0}

    def test_document_frequencies_match_the_corpus(self, small):
        corpus, _, _, index = small
        for term in index.terms:
            rows, _, _ = postings(index, term)
            assert index.document_frequency(term) == corpus.document_frequency(term)
            assert index.document_frequency(term) == len(rows)


class TestObjectScores:
    def test_matched_objects_are_the_candidate_objects(self, small):
        _, _, _, index = small
        column = WeightPipeline(index, ScoringMode.RATING_IF_MATCH).object_scores(
            ["cafe", "museum"]
        )
        assert object_ids_of(index, np.flatnonzero(column)) == {0, 1, 7}

    def test_tfidf_scores_equal_direct_scoring(self, small):
        corpus, _, _, index = small
        vsm = VectorSpaceModel(corpus)
        keywords = ["cafe", "coffee"]
        query = vsm.query_vector(keywords)
        column = WeightPipeline(index, ScoringMode.TEXT_RELEVANCE).object_scores(keywords)
        for obj in corpus:
            assert column[index.object_row(obj.object_id)] == vsm.score(obj, query)
        assert object_ids_of(index, np.flatnonzero(column > 0.0)) == {0, 1, 6}

    def test_unknown_keywords_score_zero_everywhere(self, small):
        _, _, _, index = small
        for mode in ScoringMode:
            assert not WeightPipeline(index, mode).object_scores(["zzz", "nothing"]).any()

    def test_language_model_scores_equal_the_scalar_scorer(self, small):
        corpus, _, _, index = small
        scorer = LanguageModelScorer(corpus)
        keywords = ["cafe", "coffee", "zzz"]
        column = WeightPipeline(index, ScoringMode.LANGUAGE_MODEL).object_scores(keywords)
        for obj in corpus:
            assert column[index.object_row(obj.object_id)] == scorer.score(obj, keywords)

    def test_rating_mode_scores_ratings_of_matching_objects_only(self):
        corpus = shared_node_corpus()
        _, _, index = index_over(corpus)
        scores = WeightPipeline(index, ScoringMode.RATING_IF_MATCH).object_scores(["cafe"])
        expected = {obj.object_id: obj.rating if "cafe" in obj.keywords else 0.0
                    for obj in corpus}
        assert dict(zip(object_ids_of_list(index, range(index.num_objects)),
                        scores.tolist())) == expected


class TestWindowFiltering:
    def test_window_keeps_only_objects_inside(self, small):
        _, _, mapping, index = small
        pipeline = WeightPipeline(index, ScoringMode.TEXT_RELEVANCE)
        inside = pipeline.node_weights(["cafe"], window=Rectangle(0, 0, 100, 100))
        assert set(inside) == {mapping.node_of(0)}
        everything = pipeline.node_weights(["cafe"], window=Rectangle(0, 0, 1000, 1000))
        assert set(everything) == {mapping.node_of(0), mapping.node_of(1)}

    def test_objects_on_window_border_included(self, small):
        _, _, mapping, index = small
        pipeline = WeightPipeline(index, ScoringMode.TEXT_RELEVANCE)
        # Objects 0 (50, 50) and 1 (150, 50) sit on the window's borders.
        weights = pipeline.node_weights(["cafe"], window=Rectangle(50, 50, 150, 150))
        assert set(weights) == {mapping.node_of(0), mapping.node_of(1)}

    def test_window_masks_objects_and_node_window_masks_nodes(self, small):
        _, network, mapping, index = small
        pipeline = WeightPipeline(index, ScoringMode.TEXT_RELEVANCE)
        node = mapping.node_of(1)
        window = Rectangle(120, 20, 200, 100)  # holds object 1, not its node
        assert not window.contains(*network.coords(node))
        by_objects = pipeline.node_weights(["cafe"], window=window)
        assert set(by_objects) == {node}
        assert pipeline.node_weights(["cafe"], window=window, node_window=window) == {}

    @pytest.mark.parametrize("mode", list(ScoringMode))
    def test_empty_keywords_yield_no_weights(self, small, mode):
        _, _, _, index = small
        pipeline = WeightPipeline(index, mode)
        assert pipeline.node_weights([]) == {}
        assert pipeline.node_weights([], window=Rectangle(0, 0, 1000, 1000)) == {}

    def test_excluded_rows_drop_out_of_the_sums(self, small):
        _, _, mapping, index = small
        pipeline = WeightPipeline(index, ScoringMode.TEXT_RELEVANCE)
        unrestricted = pipeline.node_weights(["cafe"])
        exclude = np.zeros(index.num_objects, dtype=bool)
        exclude[index.object_row(0)] = True
        weights = pipeline.node_weights(["cafe"], exclude_rows=exclude)
        assert weights == {mapping.node_of(1): unrestricted[mapping.node_of(1)]}


class TestNodeAggregation:
    def test_weights_sum_the_objects_of_each_node(self):
        corpus = shared_node_corpus()
        _, mapping, index = index_over(corpus)
        vsm = VectorSpaceModel(corpus)
        keywords = ["cafe", "bar"]
        query = vsm.query_vector(keywords)
        weights = WeightPipeline(index, ScoringMode.TEXT_RELEVANCE).node_weights(keywords)
        assert mapping.objects_at(0) == [0, 1, 2]
        expected_at_0 = 0.0
        for object_id in (0, 1, 2):  # summed in corpus order, as the pipeline adds
            expected_at_0 += vsm.score(object_id, query)
        assert weights[0] == expected_at_0
        assert weights[3] == vsm.score(3, query)
        assert set(weights) == {0, 3}

    def test_node_sums_cover_every_mapped_node(self):
        corpus = shared_node_corpus()
        _, _, index = index_over(corpus)
        pipeline = WeightPipeline(index, ScoringMode.TEXT_RELEVANCE)
        sums = pipeline.node_sums(["pizza"])
        assert sums.shape == (index.num_nodes,)
        positive = {int(index.node_ids[pos]) for pos in np.flatnonzero(sums > 0.0)}
        assert positive == {0}
        assert pipeline.node_weights(["pizza"]) == {0: float(sums[0])}

    def test_zero_rating_match_contributes_nothing(self):
        corpus = shared_node_corpus()
        _, mapping, index = index_over(corpus)
        pipeline = WeightPipeline(index, ScoringMode.RATING_IF_MATCH)
        # Object 2 matches "pizza" but has rating 0, so its node weighs nothing.
        assert pipeline.node_weights(["pizza"]) == {}
        reference = RelevanceScorer(corpus, mapping, mode=ScoringMode.RATING_IF_MATCH)
        assert reference.node_weights(["pizza"]) == {}
        assert pipeline.node_weights(["bar"]) == {0: 2.0}


class TestConstruction:
    def test_empty_corpus_builds_an_empty_index(self):
        _, _, index = index_over(ObjectCorpus())
        assert (index.num_objects, index.num_terms, index.num_postings) == (0, 0, 0)
        assert index.num_nodes == 0
        for mode in ScoringMode:
            assert WeightPipeline(index, mode).node_weights(["cafe"]) == {}

    def test_mapping_with_unknown_object_rejected(self):
        corpus = make_small_corpus()
        network = grid_network(4, 4, spacing=100.0)
        mapping = map_objects_to_network(network, corpus)
        stray = NodeObjectMap(
            node_to_objects={**mapping.node_to_objects, 0: [0, 99]},
            object_to_node={**mapping.object_to_node, 99: 0},
        )
        with pytest.raises(IndexError_, match="absent from the corpus"):
            ColumnarScoringIndex.build(corpus, stray, network.coords)

    def test_missing_array_rejected(self, small):
        _, _, _, index = small
        arrays = index.arrays()
        del arrays["post_tf"]
        with pytest.raises(IndexError_, match="missing array 'post_tf'"):
            ColumnarScoringIndex.from_arrays(index.terms, arrays)

    def test_postings_indptr_must_match_the_vocabulary(self, small):
        _, _, _, index = small
        with pytest.raises(IndexError_, match="does not match"):
            ColumnarScoringIndex.from_arrays(index.terms[:-1], index.arrays())

    def test_node_indptr_must_match_the_node_table(self, small):
        _, _, _, index = small
        arrays = index.arrays()
        arrays["node_indptr"] = arrays["node_indptr"][:-1]
        with pytest.raises(IndexError_, match="node map indptr"):
            ColumnarScoringIndex.from_arrays(index.terms, arrays)

    @pytest.mark.parametrize("mode", list(ScoringMode))
    def test_from_arrays_scores_identically(self, small, mode):
        _, _, _, index = small
        restored = ColumnarScoringIndex.from_arrays(index.terms, index.arrays())
        keywords = ["cafe", "coffee", "restaurant"]
        original = WeightPipeline(index, mode).node_weights(keywords)
        assert list(WeightPipeline(restored, mode).node_weights(keywords).items()) == \
            list(original.items())

    def test_object_row_of_unknown_id_is_none(self, small):
        _, _, _, index = small
        assert index.object_row(99) is None
        assert index.object_row(7) == 7


def random_index(seed: int, num_objects: int = 200):
    """A seeded random corpus over a 6x6 grid, with its mapping and index."""
    rng = random.Random(seed)
    vocab = ["cafe", "bar", "museum", "park", "sushi", "pizza"]
    corpus = ObjectCorpus(
        GeoTextualObject.create(
            object_id,
            rng.uniform(-20.0, 320.0),
            rng.uniform(-20.0, 320.0),
            [rng.choice(vocab) for _ in range(rng.randint(1, 4))],
            rating=rng.choice([0.0, 1.0, 3.5]),
        )
        for object_id in range(num_objects)
    )
    network = grid_network(6, 6, spacing=60.0)
    mapping = map_objects_to_network(network, corpus)
    return corpus, mapping, ColumnarScoringIndex.build(corpus, mapping, network.coords)


class TestExtentSubset:
    EXTENT = Rectangle(0.0, 0.0, 170.0, 170.0)

    def test_subset_keeps_global_statistics(self):
        _, _, index = random_index(4)
        sub = index.subset_for_extent(self.EXTENT)
        assert sub.terms == index.terms
        assert sub.global_num_objects == index.global_num_objects
        assert 0 < sub.num_objects < index.num_objects
        for term in index.terms:
            assert sub.document_frequency(term) == index.document_frequency(term)
        _, full_weights, _ = postings(index, "cafe")
        _, sub_weights, _ = postings(sub, "cafe")
        assert set(sub_weights.tolist()) <= set(full_weights.tolist())

    @pytest.mark.parametrize("mode", list(ScoringMode))
    def test_subset_weights_equal_the_full_index_inside_the_extent(self, mode):
        _, _, index = random_index(9)
        sub = index.subset_for_extent(self.EXTENT)
        window = Rectangle(20.0, 10.0, 150.0, 160.0)
        for keywords in (["cafe"], ["bar", "sushi"], ["museum", "park", "pizza"]):
            full = WeightPipeline(index, mode).node_weights(
                keywords, window=window, node_window=window
            )
            part = WeightPipeline(sub, mode).node_weights(
                keywords, window=window, node_window=window
            )
            assert list(part.items()) == list(full.items())

    def test_subset_keeps_objects_mapped_to_nodes_inside_the_extent(self, small):
        corpus, network, mapping, index = small
        extent = Rectangle(0.0, 0.0, 120.0, 120.0)
        kept = set(index.subset_for_extent(extent).object_ids.tolist())
        for obj in corpus:
            node_inside = extent.contains(*network.coords(mapping.node_of(obj.object_id)))
            inside = extent.contains(obj.x, obj.y) or node_inside
            assert (obj.object_id in kept) == inside, obj.object_id
        # Object 1 (150, 50) lies outside, but its node (100, 0) lies inside.
        assert 1 in kept

    def test_subset_postings_rows_ascend(self):
        # Dense enough that one term's postings in one shard cell come from
        # several cells of the full grid, whose (cell, row) order differs.
        _, _, index = random_index(12, num_objects=3000)
        sub = index.subset_for_extent(self.EXTENT)
        # The subset re-sorts under its own grid, which differs from the
        # full index's (its bounding box is the shard's).
        assert not np.array_equal(sub.bound_meta, index.bound_meta)
        assert_cell_ordered_postings(sub)
        assert np.all(sub.post_rows < sub.num_objects)
