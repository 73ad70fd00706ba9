"""Randomized parity suite: columnar σ_v pipeline vs the object-loop reference.

The columnar scoring index promises *bit-identical* node weights — same values,
same dict iteration order — as the object-loop reference backend for all three
scoring modes, windowed and window-less, and therefore byte-identical solver
results on top of either backend. This suite checks that promise on seeded random
corpora (including zero-rating objects, empty descriptions, unknown query terms
and duplicated/odd-case raw keywords).
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.core.app import APPSolver
from repro.core.exact import ExactSolver
from repro.core.greedy import GreedySolver
from repro.core.instance import build_instance
from repro.core.query import LCMSRQuery
from repro.core.tgen import TGENSolver
from repro.network.builders import grid_network
from repro.network.subgraph import Rectangle
from repro.objects.corpus import ObjectCorpus
from repro.objects.geoobject import GeoTextualObject
from repro.objects.mapping import map_objects_to_network
from repro.textindex.columnar import ColumnarScoringIndex, WeightPipeline
from repro.textindex.relevance import RelevanceScorer, ScoringMode
from repro.textindex.tokenizer import normalize_keyword_set
from repro.textindex.vector_space import VectorSpaceModel

VOCAB = [
    "cafe", "bar", "museum", "park", "sushi", "pizza", "shop", "gym",
    "bakery", "cinema", "library", "hotel",
]


def random_setup(seed: int, num_objects: int = 240, rows: int = 6, cols: int = 6):
    """A seeded random corpus + network + mapping + columnar index."""
    rng = random.Random(seed)
    objects = []
    for object_id in range(num_objects):
        terms = [rng.choice(VOCAB) for _ in range(rng.randint(0, 6))]
        objects.append(
            GeoTextualObject.create(
                object_id,
                rng.uniform(-20.0, 320.0),
                rng.uniform(-20.0, 320.0),
                terms,
                rating=rng.choice([0.0, 0.5, 1.0, 2.5, 4.8]),
            )
        )
    corpus = ObjectCorpus(objects)
    network = grid_network(rows, cols, spacing=300.0 / max(rows - 1, 1))
    mapping = map_objects_to_network(network, corpus)
    columnar = ColumnarScoringIndex.build(corpus, mapping, network.coords)
    return corpus, network, mapping, columnar


def random_keywords(rng: random.Random):
    count = rng.randint(1, 4)
    kws = [rng.choice(VOCAB + ["nosuchterm", "alsoabsent"]) for _ in range(count)]
    # Normalised (sorted), the form LCMSRQuery hands every scorer: the
    # pipeline and the language-model reference sum in the order given.
    return normalize_keyword_set(kws)


def random_window(rng: random.Random):
    x0 = rng.uniform(-30.0, 200.0)
    y0 = rng.uniform(-30.0, 200.0)
    return Rectangle(x0, y0, x0 + rng.uniform(40.0, 220.0), y0 + rng.uniform(40.0, 220.0))


class TestNodeWeightParity:
    @pytest.mark.parametrize("mode", list(ScoringMode))
    @pytest.mark.parametrize("seed", [11, 29, 63])
    def test_bitwise_identity_windowed_and_windowless(self, mode, seed):
        corpus, network, mapping, columnar = random_setup(seed)
        scorer = RelevanceScorer(corpus, mapping, mode=mode)
        pipeline = WeightPipeline(columnar, mode)
        rng = random.Random(seed * 7 + 1)
        for trial in range(8):
            keywords = random_keywords(rng)
            window = None if trial % 2 == 0 else random_window(rng)
            reference = scorer.node_weights(keywords, window=window)
            columnar_weights = pipeline.node_weights(keywords, window=window)
            # Bitwise identity, including the dict iteration order the solvers see.
            assert list(reference.items()) == list(columnar_weights.items())

    def test_instance_node_window_equals_window_graph_restriction(self):
        corpus, network, mapping, columnar = random_setup(17)
        scorer = RelevanceScorer(corpus, mapping)
        pipeline = WeightPipeline(columnar, ScoringMode.TEXT_RELEVANCE)
        window = Rectangle(40.0, 40.0, 230.0, 210.0)
        window_nodes = {n.node_id for n in network.nodes() if window.contains(n.x, n.y)}
        reference = scorer.node_weights(
            ("cafe", "sushi"), candidate_nodes=window_nodes, window=window
        )
        fast = pipeline.node_weights(("cafe", "sushi"), window=window, node_window=window)
        assert list(reference.items()) == list(fast.items())

    def test_unknown_terms_only_yield_empty(self):
        corpus, network, mapping, columnar = random_setup(3)
        for mode in ScoringMode:
            pipeline = WeightPipeline(columnar, mode)
            assert pipeline.node_weights(("nosuchterm",)) == {}


@pytest.mark.usefixtures("window_kernel")
class TestNodeWeightParityWindowKernel(TestNodeWeightParity):
    """The node-weight parity cases through the window kernel."""


class TestSolverResultParity:
    @pytest.mark.parametrize("mode", list(ScoringMode))
    def test_solver_results_identical_on_both_backends(self, mode):
        corpus, network, mapping, columnar = random_setup(41, num_objects=200)
        scorer = RelevanceScorer(corpus, mapping, mode=mode)
        pipeline = WeightPipeline(columnar, mode)
        rng = random.Random(4242)
        solvers = [GreedySolver(), TGENSolver(), APPSolver()]
        for trial in range(4):
            window = random_window(rng) if trial % 2 else None
            query = LCMSRQuery.create(
                random_keywords(rng), delta=rng.uniform(100.0, 400.0), region=window
            )
            fast = build_instance(network, query, pipeline=pipeline)
            reference = build_instance(network, query, scorer=scorer)
            assert list(fast.weights.items()) == list(reference.weights.items())
            for solver in solvers:
                a = solver.solve(fast)
                b = solver.solve(reference)
                assert a.region.nodes == b.region.nodes
                assert a.weight == b.weight  # byte-identical, not approx
                assert a.length == b.length

    def test_exact_solver_identical_on_small_window(self):
        corpus, network, mapping, columnar = random_setup(13, num_objects=120)
        scorer = RelevanceScorer(corpus, mapping)
        pipeline = WeightPipeline(columnar, ScoringMode.TEXT_RELEVANCE)
        window = Rectangle(0.0, 0.0, 130.0, 130.0)
        query = LCMSRQuery.create(("cafe", "bar"), delta=120.0, region=window)
        fast = build_instance(network, query, pipeline=pipeline)
        reference = build_instance(network, query, scorer=scorer)
        a = ExactSolver().solve(fast)
        b = ExactSolver().solve(reference)
        assert a.region.nodes == b.region.nodes
        assert a.weight == b.weight

    def test_topk_identical(self):
        corpus, network, mapping, columnar = random_setup(23, num_objects=180)
        scorer = RelevanceScorer(corpus, mapping)
        pipeline = WeightPipeline(columnar, ScoringMode.TEXT_RELEVANCE)
        query = LCMSRQuery.create(("cafe", "pizza"), delta=250.0, k=3)
        fast = build_instance(network, query, pipeline=pipeline)
        reference = build_instance(network, query, scorer=scorer)
        a = TGENSolver().solve_topk(fast, 3)
        b = TGENSolver().solve_topk(reference, 3)
        assert [r.region.nodes for r in a] == [r.region.nodes for r in b]
        assert [r.weight for r in a] == [r.weight for r in b]


@pytest.mark.usefixtures("window_kernel")
class TestSolverResultParityWindowKernel(TestSolverResultParity):
    """The solver parity cases through the window kernel."""


class TestVectorSpaceParity:
    def test_object_scores_bitwise_identical(self):
        corpus, network, mapping, columnar = random_setup(31)
        vsm = VectorSpaceModel(corpus)
        ids = list(corpus.object_ids())
        for keywords in (["cafe"], ["BAR", " sushi ", "bar"], ["nosuchterm"]):
            reference = vsm.batch_scores(ids, keywords)
            column = WeightPipeline(columnar, ScoringMode.TEXT_RELEVANCE).object_scores(
                normalize_keyword_set(keywords)
            )
            fast = {
                object_id: float(column[columnar.object_row(object_id)])
                for object_id in ids
                if column[columnar.object_row(object_id)] > 0.0
            }
            assert fast == reference

    def test_query_weights_bitwise_identical(self):
        # The delta overlay scores mutated objects against these weights.
        corpus, network, mapping, columnar = random_setup(31)
        vsm = VectorSpaceModel(corpus)
        for keywords in (("cafe",), ("bar", "sushi", "nosuchterm"), ("nosuchterm",)):
            query_vector = vsm.query_vector(keywords)
            weighted, norm = columnar.query_weights(keywords)
            assert norm == query_vector.norm
            assert [(columnar.terms[tid], weight) for tid, weight in weighted] == [
                (term, query_vector.weights[term])
                for term in query_vector.terms
                if query_vector.weights[term] > 0.0
            ]


class TestColumnarStructure:
    def test_shapes_and_lookup(self):
        corpus, network, mapping, columnar = random_setup(2)
        assert columnar.num_objects == len(corpus)
        assert columnar.num_terms == corpus.vocabulary_size()
        assert columnar.num_postings == sum(
            len(obj.keywords) for obj in corpus
        )
        assert columnar.terms == tuple(sorted(corpus.vocabulary()))
        for term in columnar.terms:
            assert columnar.document_frequency(term) == corpus.document_frequency(term)
        assert columnar.document_frequency("nosuchterm") == 0
        # node → object CSR covers every mapped object exactly once
        assert int(columnar.node_indptr[-1]) == mapping.num_mapped
        assert len(columnar.node_indptr) == columnar.num_nodes + 1
        for object_id in list(corpus.object_ids())[:20]:
            row = columnar.object_row(object_id)
            assert int(columnar.object_ids[row]) == object_id

    def test_pickle_round_trip_preserves_parity(self):
        corpus, network, mapping, columnar = random_setup(8)
        restored = pickle.loads(pickle.dumps(columnar))
        a = WeightPipeline(columnar, ScoringMode.TEXT_RELEVANCE)
        b = WeightPipeline(restored, ScoringMode.TEXT_RELEVANCE)
        assert a.node_weights(("cafe", "bar")) == b.node_weights(("cafe", "bar"))


class TestQueryNormalisation:
    def test_direct_construction_normalises(self):
        query = LCMSRQuery(keywords=("Cafe", " cafe ", "BAR"), delta=5.0)
        assert query.keywords == ("bar", "cafe")

    def test_create_normalises(self):
        query = LCMSRQuery.create(["Cafe", " cafe ", "BAR"], delta=5.0)
        assert query.keywords == ("bar", "cafe")

    def test_list_input_becomes_tuple(self):
        query = LCMSRQuery(keywords=["cafe"], delta=5.0)  # type: ignore[arg-type]
        assert query.keywords == ("cafe",)
