"""Admissibility of the cell upper bounds behind :mod:`repro.core.bounds`.

Every bound an :class:`~repro.core.bounds.UpperBoundIndex` exposes must be
**admissible** — greater than or equal to the true best achievable value it
bounds, for every query. The pruning layers (the instance builder's zero-mass
window skip, Exact's branch-and-bound, TGEN's dead-edge skip) rely on this to
stay skip-only; ``test_pruning_parity.py`` checks the end-to-end consequence,
this module checks the bounds themselves:

* on seeded random datasets, the window-mass and δ-ball-mass bounds dominate
  the corresponding true value computed from the unbounded weight pipeline,
  across all three scoring modes,
* degenerate geometries behave (empty corpus, a single object, every object
  piled onto one node, δ-balls straddling cell boundaries),
* the exact-zero licence holds: a bound of ``0.0`` really means *no* positive
  mass (the guard factor preserves exact zeros),
* :func:`~repro.core.bounds.positive_suffix_potentials` is exactly monotone
  and exactly zero iff no positive tail remains.
"""

from __future__ import annotations

import random

import pytest

from repro.core.bounds import UpperBoundIndex, positive_suffix_potentials
from repro.datasets.ny import build_ny_like
from repro.datasets.queries import generate_workload
from repro.exceptions import IndexError_
from repro.network.builders import grid_network
from repro.network.subgraph import Rectangle
from repro.objects.corpus import ObjectCorpus
from repro.objects.geoobject import GeoTextualObject
from repro.service.bundle import IndexBundle
from repro.textindex.relevance import ScoringMode

SEED = 29
MODES = [
    ScoringMode.TEXT_RELEVANCE,
    ScoringMode.RATING_IF_MATCH,
    ScoringMode.LANGUAGE_MODEL,
]


@pytest.fixture(scope="module")
def dataset():
    return build_ny_like(
        rows=12, cols=12, block_size=120.0, num_objects=300, num_clusters=5, seed=SEED
    )


@pytest.fixture(scope="module", params=MODES, ids=lambda mode: mode.value)
def pipeline(request, dataset):
    bundle = IndexBundle.build(
        dataset.network, dataset.corpus, scoring_mode=request.param
    )
    return bundle.weight_pipeline()


@pytest.fixture(scope="module")
def keyword_sets(dataset):
    workload = generate_workload(
        dataset, num_queries=6, num_keywords=3, delta=700.0, area_km2=0.5, seed=SEED
    )
    return [query.keywords for query in workload]


def _random_windows(rng, extent=1440.0, count=8):
    windows = []
    for _ in range(count):
        x0 = rng.uniform(-100.0, extent)
        y0 = rng.uniform(-100.0, extent)
        windows.append(
            Rectangle(x0, y0, x0 + rng.uniform(50.0, 600.0), y0 + rng.uniform(50.0, 600.0))
        )
    return windows


class TestWindowBounds:
    def test_window_mass_dominates_true_in_window_mass(self, pipeline, keyword_sets):
        rng = random.Random(SEED)
        bounds = pipeline.bounds
        for keywords in keyword_sets:
            for window in _random_windows(rng):
                true_mass = sum(pipeline.node_weights(keywords, window=window).values())
                assert bounds.window_mass_bound(window) >= true_mass, (
                    keywords,
                    window,
                )


class TestBallAndEdgeBounds:
    def test_ball_mass_dominates_reachable_node_mass(self, pipeline, keyword_sets):
        # Radii around 1.5 cells and centers jittered across the grid make the
        # balls straddle cell boundaries — exactly where an off-by-one in the
        # covering span would surface.
        rng = random.Random(SEED + 3)
        index = pipeline.index
        bounds = pipeline.bounds
        radii = [0.4 * bounds.cell_w, 1.5 * bounds.cell_w, 3.2 * bounds.cell_w]
        for keywords in keyword_sets:
            weights = pipeline.node_weights(keywords)
            for _ in range(6):
                cx = rng.uniform(0.0, 1440.0)
                cy = rng.uniform(0.0, 1440.0)
                for radius in radii:
                    true_mass = 0.0
                    for pos in range(len(index.node_ids)):
                        dx = float(index.node_x[pos]) - cx
                        dy = float(index.node_y[pos]) - cy
                        if dx * dx + dy * dy <= radius * radius:
                            true_mass += weights.get(int(index.node_ids[pos]), 0.0)
                    assert bounds.ball_mass_bound(cx, cy, radius) >= true_mass


class TestExactZeroLicence:
    """A bound of exactly 0.0 licences a skip; it must imply zero true mass."""

    def test_zero_window_mass_implies_zero_weights(self, pipeline, keyword_sets):
        rng = random.Random(SEED + 6)
        bounds = pipeline.bounds
        checked = 0
        for keywords in keyword_sets:
            for window in _random_windows(rng, count=20):
                if bounds.window_mass_bound(window) == 0.0:
                    checked += 1
                    assert pipeline.node_weights(keywords, window=window) == {}
        # The jittered windows reach off-extent space, so some must hit zero.
        assert checked > 0

    def test_zero_rating_objects_keep_an_exactly_zero_bound(self):
        # The guard factor must preserve exact zeros (0 * guard == 0): a window
        # full of matched objects whose ratings are all zero has zero rating
        # mass, and rating mode's bound must say so exactly.
        network = grid_network(4, 4, spacing=100.0)
        corpus = ObjectCorpus(
            [
                GeoTextualObject.create(i, 50.0 + 40.0 * i, 50.0, ["cafe"], rating=0.0)
                for i in range(5)
            ]
        )
        bundle = IndexBundle.build(
            network, corpus, scoring_mode=ScoringMode.RATING_IF_MATCH
        )
        bounds = bundle.weight_pipeline().bounds
        everywhere = Rectangle(-50.0, -50.0, 400.0, 400.0)
        assert bounds.window_mass_bound(everywhere) == 0.0


class TestDegenerateGeometries:
    def test_empty_corpus_bounds_are_zero(self):
        # The grid index refuses empty corpora, so build the columnar layer
        # directly — the bound aggregates must still come out well-formed.
        from repro.objects.mapping import map_objects_to_network
        from repro.textindex.columnar import ColumnarScoringIndex, WeightPipeline

        network = grid_network(3, 3, spacing=100.0)
        corpus = ObjectCorpus()
        mapping = map_objects_to_network(network, corpus)
        index = ColumnarScoringIndex.build(corpus, mapping, network.coords)
        bounds = WeightPipeline(index, ScoringMode.TEXT_RELEVANCE).bounds
        window = Rectangle(-1000.0, -1000.0, 1000.0, 1000.0)
        assert bounds.window_mass_bound(window) == 0.0
        assert bounds.ball_mass_bound(0.0, 0.0, 1e6) == 0.0

    @pytest.mark.parametrize("mode", MODES, ids=lambda mode: mode.value)
    def test_single_object_bounds_dominate_its_weight(self, mode):
        network = grid_network(3, 3, spacing=100.0)
        corpus = ObjectCorpus(
            [GeoTextualObject.create(0, 105.0, 95.0, ["cafe", "bar"], rating=2.5)]
        )
        bundle = IndexBundle.build(network, corpus, scoring_mode=mode)
        pipeline = bundle.weight_pipeline()
        bounds = pipeline.bounds
        weights = pipeline.node_weights(["cafe"])
        true_mass = sum(weights.values())
        assert true_mass > 0.0
        window = Rectangle(0.0, 0.0, 250.0, 250.0)
        assert bounds.window_mass_bound(window) >= true_mass
        assert bounds.ball_mass_bound(100.0, 100.0, 50.0) >= true_mass

    @pytest.mark.parametrize("mode", MODES, ids=lambda mode: mode.value)
    def test_all_objects_on_one_node(self, mode):
        # Every object lands on the same nearest node: the per-node potential
        # concentrates in one cell, and both the window-mass and the ball-mass
        # bound must still cover the aggregate weight there.
        network = grid_network(3, 3, spacing=100.0)
        corpus = ObjectCorpus(
            [
                GeoTextualObject.create(i, 1.0 + 0.1 * i, 1.0, ["cafe"], rating=1.0 + i)
                for i in range(6)
            ]
        )
        bundle = IndexBundle.build(network, corpus, scoring_mode=mode)
        pipeline = bundle.weight_pipeline()
        bounds = pipeline.bounds
        weights = pipeline.node_weights(["cafe"])
        assert len(weights) == 1
        [(node_id, weight)] = weights.items()
        assert node_id == 0
        tight = Rectangle(-10.0, -10.0, 10.0, 10.0)
        assert bounds.window_mass_bound(tight) >= weight
        assert bounds.ball_mass_bound(0.0, 0.0, 5.0) >= weight

    def test_unknown_scoring_mode_is_rejected(self, dataset):
        bundle = IndexBundle.build(dataset.network, dataset.corpus)
        with pytest.raises(IndexError_, match="no bound aggregates"):
            UpperBoundIndex.from_columnar(bundle.weight_pipeline().index, "nonsense")


class TestPositiveSuffixPotentials:
    def test_suffix_is_exactly_monotone_and_exact_on_random_inputs(self):
        rng = random.Random(SEED + 7)
        for _ in range(50):
            weights = [rng.uniform(-5.0, 5.0) for _ in range(rng.randint(0, 30))]
            suffix = positive_suffix_potentials(weights)
            assert len(suffix) == len(weights) + 1
            assert suffix[-1] == 0.0
            for i in range(len(weights)):
                # Exact recurrence, and exact monotonicity (fl(a+b) >= b for a >= 0).
                assert suffix[i] == suffix[i + 1] + max(weights[i], 0.0)
                assert suffix[i] >= suffix[i + 1]

    def test_suffix_is_zero_exactly_when_no_positive_tail_remains(self):
        weights = [2.0, -1.0, 0.0, 3.0, -4.0, 0.0]
        suffix = positive_suffix_potentials(weights)
        for i in range(len(weights) + 1):
            has_positive_tail = any(w > 0.0 for w in weights[i:])
            assert (suffix[i] > 0.0) == has_positive_tail

    def test_all_nonpositive_weights_give_the_zero_vector(self):
        suffix = positive_suffix_potentials([-1.0, 0.0, -2.5])
        assert suffix == [0.0, 0.0, 0.0, 0.0]
