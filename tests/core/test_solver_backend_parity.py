"""Seeded cross-backend parity: dense-substrate solvers vs the dict reference.

The dense solver substrate (:mod:`repro.core.dense`) is required to be a pure
representation change: for every solver, every scoring mode, and windowed as
well as window-less queries, the results must be **byte-identical** to the dict
reference backend — same regions, same tie-breaks, bit-equal floats. This is
the solver-layer counterpart of PR 2's network-backend and PR 4's
weight-backend parity suites.

The suite runs the full indexed path (dataset → ``IndexBundle`` → engine →
``build_instance`` with the columnar pipeline, which attaches the dense
substrate) and compares ``solve`` / ``solve_topk`` under
``with_backend("dict")`` vs ``with_backend("dense")``. Exact runs on a tiny
window and additionally exercises the dense-first route (an instance created
from the substrate alone, with the dict view materialised lazily).
"""

from __future__ import annotations

import pytest

from repro.core.app import APPSolver
from repro.core.exact import ExactSolver
from repro.core.greedy import GreedySolver
from repro.core.tgen import TGENSolver
from repro.datasets.ny import build_ny_like
from repro.datasets.queries import generate_workload
from repro.engine import LCMSREngine
from repro.network.subgraph import Rectangle
from repro.service.bundle import IndexBundle
from repro.textindex.relevance import ScoringMode

SEED = 23
MODES = [
    ScoringMode.TEXT_RELEVANCE,
    ScoringMode.RATING_IF_MATCH,
    ScoringMode.LANGUAGE_MODEL,
]


@pytest.fixture(scope="module")
def dataset():
    return build_ny_like(
        rows=14, cols=14, block_size=120.0, num_objects=420, num_clusters=6, seed=SEED
    )


@pytest.fixture(scope="module", params=MODES, ids=lambda mode: mode.value)
def engine(request, dataset):
    bundle = IndexBundle.build(
        dataset.network, dataset.corpus, scoring_mode=request.param
    )
    return LCMSREngine.from_bundle(bundle)


@pytest.fixture(scope="module")
def workload(dataset):
    windowed = generate_workload(
        dataset, num_queries=3, num_keywords=3, delta=700.0, area_km2=0.5, seed=SEED
    )
    return windowed + [query.with_region(None) for query in windowed]


def _assert_identical(result_a, result_b, context):
    assert result_a.region.nodes == result_b.region.nodes, context
    assert result_a.region.edges == result_b.region.edges, context
    assert result_a.weight == result_b.weight, context  # bit-equal, no approx
    assert result_a.length == result_b.length, context
    assert result_a.scaled_weight == result_b.scaled_weight, context


def _assert_topk_identical(topk_a, topk_b, context):
    assert len(topk_a.results) == len(topk_b.results), context
    for a, b in zip(topk_a.results, topk_b.results):
        _assert_identical(a, b, context)


def _assert_same_work(result_a, result_b, context):
    """Equal TGEN counters: the backends combined exactly the same tuples."""
    for key in ("tuples_generated", "edges_processed"):
        assert result_a.stats[key] == result_b.stats[key], (key, context)


class _PollBudget:
    """A solve budget that expires after a fixed number of ``expired()`` polls.

    Unlike a deadline it truncates a run at the same point on every machine,
    so both backends must stop after exactly the same edge.
    """

    def __init__(self, polls: int) -> None:
        self.remaining = polls

    def expired(self) -> bool:
        self.remaining -= 1
        return self.remaining < 0

    def expired_now(self) -> bool:
        return self.remaining < 0


class TestHeuristicSolverParity:
    @pytest.mark.parametrize(
        "make_solver",
        [GreedySolver, TGENSolver, APPSolver],
        ids=["greedy", "tgen", "app"],
    )
    def test_solve_is_byte_identical(self, engine, workload, make_solver):
        solver = make_solver()
        for query in workload:
            instance = engine.build_instance(query)
            assert instance.dense is not None, "pipeline path must attach the substrate"
            a = solver.solve(instance.with_backend("dict"))
            b = solver.solve(instance.with_backend("dense"))
            _assert_identical(a, b, (solver.name, query.keywords, query.region))

    @pytest.mark.parametrize(
        "make_solver", [GreedySolver, TGENSolver, APPSolver],
        ids=["greedy", "tgen", "app"],
    )
    def test_topk_is_byte_identical(self, engine, workload, make_solver):
        solver = make_solver()
        for query in workload[:3]:
            instance = engine.build_instance(query)
            topk_dict = solver.solve_topk(instance.with_backend("dict"), k=3)
            topk_dense = solver.solve_topk(instance.with_backend("dense"), k=3)
            assert len(topk_dict.results) == len(topk_dense.results)
            for a, b in zip(topk_dict.results, topk_dense.results):
                _assert_identical(a, b, (solver.name, query.keywords))


TGEN_SETTINGS = {
    "cap2": {"max_tuples_per_node": 2},
    "cap5": {"max_tuples_per_node": 5},
    "length-order": {"edge_order": "length"},
}


class TestTGENParity:
    """The TGEN settings and paths that the dense loop's tuple representation
    touches: per-node eviction, edge order, the top-k pool and truncation."""

    @pytest.mark.parametrize(
        "settings", list(TGEN_SETTINGS.values()), ids=list(TGEN_SETTINGS)
    )
    def test_settings_are_byte_identical(self, engine, workload, settings):
        solver = TGENSolver(**settings)
        for query in workload:
            instance = engine.build_instance(query)
            for pruning in ("auto", "off"):
                pinned = instance.with_pruning(pruning)
                a = solver.solve(pinned.with_backend("dict"))
                b = solver.solve(pinned.with_backend("dense"))
                context = (settings, pruning, query.keywords, query.region)
                _assert_identical(a, b, context)
                if pruning == "off":
                    _assert_same_work(a, b, context)

    @pytest.mark.parametrize(
        "settings",
        [{}] + list(TGEN_SETTINGS.values()),
        ids=["default"] + list(TGEN_SETTINGS),
    )
    def test_topk_is_byte_identical(self, engine, workload, settings):
        solver = TGENSolver(**settings)
        for query in workload:
            instance = engine.build_instance(query)
            _assert_topk_identical(
                solver.solve_topk(instance.with_backend("dict"), k=3),
                solver.solve_topk(instance.with_backend("dense"), k=3),
                (settings, query.keywords, query.region),
            )

    @pytest.mark.parametrize("polls", [5, 40, 150])
    def test_truncated_runs_are_identical(self, engine, workload, polls):
        solver = TGENSolver()
        truncated = 0
        for query in workload:
            instance = engine.build_instance(query).with_pruning("off")
            a = solver.solve(instance.with_backend("dict").with_budget(_PollBudget(polls)))
            b = solver.solve(instance.with_backend("dense").with_budget(_PollBudget(polls)))
            context = (polls, query.keywords, query.region)
            _assert_identical(a, b, context)
            # Dense stats also carry edges_skipped; compare what both report.
            shared = a.stats.keys() & b.stats.keys()
            assert {"tuples_generated", "edges_processed", "quality_regret_bound"} <= shared
            assert {key: a.stats[key] for key in shared} == {
                key: b.stats[key] for key in shared
            }, context
            truncated += a.stats.get("budget_expired", 0.0) > 0.0
        assert truncated, "the poll budget must cut some runs short"


class TestWideWindowParity:
    """A window-less 34×34 grid: 1,156 positions, so a node mask spans many
    machine words."""

    @pytest.fixture(scope="class")
    def wide_instance(self):
        dataset = build_ny_like(
            rows=34, cols=34, block_size=120.0, num_objects=800, num_clusters=8, seed=SEED
        )
        engine = LCMSREngine.from_bundle(
            IndexBundle.build(dataset.network, dataset.corpus)
        )
        query = generate_workload(
            dataset, num_queries=3, num_keywords=3, delta=700.0, area_km2=0.5, seed=SEED
        )[1].with_region(None)
        instance = engine.build_instance(query)
        assert instance.num_candidate_nodes == 34 * 34
        return instance.with_pruning("off")

    def test_solve_is_byte_identical(self, wide_instance):
        solver = TGENSolver()
        a = solver.solve(wide_instance.with_backend("dict"))
        b = solver.solve(wide_instance.with_backend("dense"))
        _assert_identical(a, b, "wide")
        _assert_same_work(a, b, "wide")

    def test_topk_is_byte_identical(self, wide_instance):
        solver = TGENSolver()
        _assert_topk_identical(
            solver.solve_topk(wide_instance.with_backend("dict"), k=3),
            solver.solve_topk(wide_instance.with_backend("dense"), k=3),
            "wide-topk",
        )


class TestExactParity:
    def _tiny_window_instance(self, engine, dataset):
        # A window of ~2 blocks keeps the node count within Exact's reach.
        for anchor in (600.0, 900.0, 1200.0):
            region = Rectangle(anchor, anchor, anchor + 260.0, anchor + 260.0)
            query_keywords = ["restaurant", "cafe", "bar"]
            from repro.core.query import LCMSRQuery

            query = LCMSRQuery.create(query_keywords, delta=400.0, region=region)
            instance = engine.build_instance(query)
            if 0 < instance.num_candidate_nodes <= 16 and instance.has_relevant_nodes:
                return instance
        pytest.skip("no tiny window with relevant nodes in this dataset")

    def test_exact_is_byte_identical_on_tiny_windows(self, engine, dataset):
        instance = self._tiny_window_instance(engine, dataset)
        solver = ExactSolver(max_nodes=16)
        a = solver.solve(instance.with_backend("dict"))
        b = solver.solve(instance.with_backend("dense"))
        _assert_identical(a, b, "exact")
        # Dense-first route: the instance rebuilt from the substrate alone
        # (lazy dict view) must match too — this is what the serving layer's
        # substrate cache hands to the dict-consuming Exact oracle.
        rebound = instance.dense.to_problem_instance(instance.query)
        c = solver.solve(rebound)
        _assert_identical(a, c, "exact-dense-first")
        topk_a = solver.solve_topk(instance.with_backend("dict"), k=3)
        topk_c = solver.solve_topk(rebound, k=3)
        assert len(topk_a.results) == len(topk_c.results)
        for ra, rb in zip(topk_a.results, topk_c.results):
            _assert_identical(ra, rb, "exact-topk")


class TestDenseFirstRebindParity:
    """The serving layer rebinding path: substrate → instance → solver."""

    @pytest.mark.parametrize(
        "make_solver", [GreedySolver, TGENSolver, APPSolver],
        ids=["greedy", "tgen", "app"],
    )
    def test_rebound_instances_solve_identically(self, engine, workload, make_solver):
        solver = make_solver()
        for query in workload[:2]:
            instance = engine.build_instance(query)
            rebound = instance.dense.to_problem_instance(query)
            a = solver.solve(instance.with_backend("dict"))
            b = solver.solve(rebound)
            _assert_identical(a, b, (solver.name, query.keywords))
            assert list(rebound.weights.items()) == list(instance.weights.items())
