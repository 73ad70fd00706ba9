"""Seeded parity: the dense-substrate solvers vs their dict-loop reference twins.

The dense solver substrate (:mod:`repro.core.dense`) is required to be a pure
representation change: for every solver, every scoring mode, and windowed as
well as window-less queries, the results must be **byte-identical** to the
solver's reference twin (:func:`repro.core.reference.twin`), which runs the
pre-substrate dict loops — same regions, same tie-breaks, bit-equal floats.
This is the solver-layer counterpart of the network-backend and σ_v parity
suites.

TGEN runs its traversal, and Greedy each grown region, in the compiled kernel,
so the twins are the kernel's oracle. TGEN must also do its twin's work: every
edge the twin processes TGEN processes or skips, and where it skips none both
generate the same tuples. The twins never prune, so the counters they do not
keep (TGEN's ``edges_skipped`` and Greedy's ``greedy_candidates_scanned`` and
``greedy_candidates_compacted``) are pinned to hand-derived values in
``test_kernel.py``. A heavy instance at the perfbench ``tgen-paper`` scale
checks the kernel where its arrays grow large.

The suite runs the full indexed path (dataset → ``IndexBundle`` → engine →
``build_instance`` with the columnar pipeline, which attaches the dense
substrate) and compares ``twin(solver).solve(x)`` / ``solve_topk`` with
``solver.solve(x)`` on the same instance. Each heuristic case runs on the
instance as built and again as the serving layer's instance cache rebinds it
(the ``route`` fixture): the kernel reads the same arrays, while the twin
reads a window graph and a weight dict rebuilt from the substrate. Exact,
whose one loop branch-and-bounds where its twin enumerates exhaustively, runs
on a tiny window and exercises the dense-first route (an instance created
from the substrate alone, with the dict view materialised lazily).
Every solver also solves on a substrate served from a
:class:`~repro.service.query_service.QueryService` instance-cache hit, and
must leave every slot of that substrate as it was.
"""

from __future__ import annotations

import random

import pytest

from repro.core.app import APPSolver
from repro.core.dense import DenseInstance
from repro.core.exact import ExactSolver
from repro.core.greedy import GreedySolver
from repro.core.instance import build_instance
from repro.core.query import LCMSRQuery
from repro.core.reference import twin
from repro.core.tgen import TGENSolver
from repro.datasets.ny import build_ny_like
from repro.datasets.queries import generate_workload
from repro.engine import LCMSREngine
from repro.network.builders import grid_network
from repro.network.compact import CompactNetwork
from repro.network.subgraph import Rectangle
from repro.service.bundle import IndexBundle
from repro.service.query_service import QueryRequest, QueryService
from repro.textindex.relevance import ScoringMode

from tests.conftest import PollBudget, assert_tgen_work_matches_twin

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


HEURISTICS = [
    pytest.param(GreedySolver, id="greedy"),
    pytest.param(TGENSolver, id="tgen"),
    pytest.param(APPSolver, id="app"),
]


class TestHeuristicSolverParity:
    @pytest.mark.parametrize("make_solver", HEURISTICS)
    def test_solve_is_byte_identical(self, engine, workload, make_solver, route):
        solver = make_solver()
        for query in workload:
            instance = route(engine.build_instance(query))
            assert instance.dense.indices is instance.graph.csr_index_arrays()[1], (
                "the pipeline path must attach a substrate sharing the window"
            )
            a = twin(solver).solve(instance)
            b = solver.solve(instance)
            _assert_identical(a, b, (solver.name, query.keywords, query.region))

    @pytest.mark.parametrize("make_solver", HEURISTICS)
    def test_topk_is_byte_identical(self, engine, workload, make_solver, route):
        solver = make_solver()
        for query in workload[:3]:
            instance = route(engine.build_instance(query))
            topk_dict = twin(solver).solve_topk(instance, k=3)
            topk_dense = solver.solve_topk(instance, k=3)
            assert len(topk_dict.results) == len(topk_dense.results)
            for a, b in zip(topk_dict.results, topk_dense.results):
                _assert_identical(a, b, (solver.name, query.keywords))


TGEN_SETTINGS = {
    "cap2": {"max_tuples_per_node": 2},
    "cap5": {"max_tuples_per_node": 5},
    "length-order": {"edge_order": "length"},
}


class TestTGENParity:
    """The TGEN settings and paths that the dense tuple representation
    touches: per-node eviction, edge order, the edge skip, the top-k pool
    and truncation."""

    @pytest.mark.parametrize(
        "settings", list(TGEN_SETTINGS.values()), ids=list(TGEN_SETTINGS)
    )
    def test_settings_are_byte_identical(self, engine, workload, settings, route):
        solver = TGENSolver(**settings)
        for query in workload:
            instance = route(engine.build_instance(query))
            a = twin(solver).solve(instance)
            b = solver.solve(instance)
            context = (settings, query.keywords, query.region)
            _assert_identical(a, b, context)
            assert_tgen_work_matches_twin(b, a, context)

    @pytest.mark.parametrize(
        "settings",
        [{}] + list(TGEN_SETTINGS.values()),
        ids=["default"] + list(TGEN_SETTINGS),
    )
    def test_topk_is_byte_identical(self, engine, workload, settings, route):
        solver = TGENSolver(**settings)
        for query in workload:
            instance = route(engine.build_instance(query))
            _assert_topk_identical(
                twin(solver).solve_topk(instance, k=3),
                solver.solve_topk(instance, k=3),
                (settings, query.keywords, query.region),
            )

    @pytest.mark.parametrize("polls", [5, 40, 150])
    def test_truncated_runs_are_identical(self, engine, workload, polls, route):
        solver = TGENSolver()
        truncated = 0
        for query in workload:
            instance = route(engine.build_instance(query))
            a = twin(solver).solve(instance.with_budget(PollBudget(polls)))
            b = solver.solve(instance.with_budget(PollBudget(polls)))
            context = (polls, query.keywords, query.region)
            _assert_identical(a, b, context)
            assert_tgen_work_matches_twin(b, a, context)
            # Both poll the budget before the skip test, so they stop at the
            # same edge and report the same expiry and regret bound.
            shared = a.stats.keys() & b.stats.keys()
            shared -= {"tuples_generated", "edges_processed"}
            assert "quality_regret_bound" in shared
            assert {key: a.stats[key] for key in shared} == {
                key: b.stats[key] for key in shared
            }, context
            truncated += a.stats.get("budget_expired", 0.0) > 0.0
        assert truncated, "the poll budget must cut some runs short"


def _compacting_instance(freeze):
    """An 8×8 grid of 100 m blocks, every node weighted, and ∆ = 2.5 km: the
    grown region's candidate table passes 64 entries with over half of them
    dead, so Greedy compacts it. ``freeze`` builds on the grid's CSR freeze."""
    network = grid_network(8, 8, spacing=100.0)
    rng = random.Random(4)
    weights = {node: round(rng.uniform(0.1, 1.0), 3) for node in network.node_ids()}
    graph = CompactNetwork.from_network(network) if freeze else network
    return build_instance(
        graph, LCMSRQuery.create(["t"], delta=2500.0), node_weights=weights
    )


class TestGreedyParity:
    """Greedy's compaction of its candidate table, which the twin never
    compacts."""

    @pytest.mark.parametrize("freeze", [False, True], ids=["road", "csr"])
    def test_a_compacted_table_keeps_the_answers(self, freeze, route):
        solver = GreedySolver()
        instance = route(_compacting_instance(freeze))
        result = solver.solve(instance)
        _assert_identical(twin(solver).solve(instance), result, "compacted")
        assert result.stats["greedy_candidates_compacted"] > 0
        topk = solver.solve_topk(instance, k=3)
        _assert_topk_identical(twin(solver).solve_topk(instance, k=3), topk, "compacted")


WIDE_SETTINGS = {"default": {}, **TGEN_SETTINGS}


class TestWideWindowParity:
    """A window-less 34×34 grid: 1,156 positions, so a node mask spans many
    machine words (19 in the kernel's masks)."""

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
        return instance

    @pytest.mark.parametrize(
        "settings", list(WIDE_SETTINGS.values()), ids=list(WIDE_SETTINGS)
    )
    def test_solve_is_byte_identical(self, wide_instance, settings, route):
        solver = TGENSolver(**settings)
        instance = route(wide_instance)
        a = twin(solver).solve(instance)
        b = solver.solve(instance)
        _assert_identical(a, b, ("wide", settings))
        assert_tgen_work_matches_twin(b, a, ("wide", settings))

    @pytest.mark.parametrize(
        "settings", list(WIDE_SETTINGS.values()), ids=list(WIDE_SETTINGS)
    )
    def test_topk_is_byte_identical(self, wide_instance, settings, route):
        solver = TGENSolver(**settings)
        instance = route(wide_instance)
        _assert_topk_identical(
            twin(solver).solve_topk(instance, k=3),
            solver.solve_topk(instance, k=3),
            ("wide-topk", settings),
        )


class TestHeavyInstanceParity:
    """A paper-default TGEN query at the perfbench ``tgen-paper`` scale (a
    42×42 grid with 6,000 objects, a 4 km² window and ∆ = 2 km), where node
    arrays hold hundreds of tuples and the kernel's arena grows many times."""

    @pytest.fixture(scope="class")
    def heavy_instance(self):
        dataset = build_ny_like(
            rows=42, cols=42, block_size=120.0, num_objects=6000, num_clusters=28, seed=SEED
        )
        engine = LCMSREngine.from_bundle(
            IndexBundle.build(dataset.network, dataset.corpus)
        )
        query = generate_workload(
            dataset, num_queries=1, num_keywords=3, delta=2000.0, area_km2=4.0, seed=SEED
        )[0]
        return engine.build_instance(query)

    def test_solve_is_byte_identical(self, heavy_instance, route):
        solver = TGENSolver()
        instance = route(heavy_instance)
        a = twin(solver).solve(instance)
        b = solver.solve(instance)
        _assert_identical(a, b, "heavy")
        assert_tgen_work_matches_twin(b, a, "heavy")


def _tiny_window_instance(engine):
    # A window of ~2 blocks keeps the node count within Exact's reach.
    for anchor in (600.0, 900.0, 1200.0):
        region = Rectangle(anchor, anchor, anchor + 260.0, anchor + 260.0)
        query_keywords = ["restaurant", "cafe", "bar"]
        query = LCMSRQuery.create(query_keywords, delta=400.0, region=region)
        instance = engine.build_instance(query)
        if 0 < instance.num_candidate_nodes <= 16 and instance.has_relevant_nodes:
            return instance
    pytest.skip("no tiny window with relevant nodes in this dataset")


class TestExactParity:
    def test_exact_is_byte_identical_on_tiny_windows(self, engine, dataset):
        instance = _tiny_window_instance(engine)
        solver = ExactSolver(max_nodes=16)
        a = solver.solve(instance)
        _assert_identical(twin(solver).solve(instance), a, "exact-twin")
        # Dense-first route: the instance rebuilt from the substrate alone
        # (lazy dict view) must match — this is what the serving layer's
        # substrate cache hands to the dict-consuming Exact oracle.
        rebound = instance.dense.to_problem_instance(instance.query)
        c = solver.solve(rebound)
        _assert_identical(a, c, "exact-dense-first")
        topk_a = solver.solve_topk(instance, k=3)
        _assert_topk_identical(twin(solver).solve_topk(instance, k=3), topk_a, "exact-twin")
        topk_c = solver.solve_topk(rebound, k=3)
        assert len(topk_a.results) == len(topk_c.results)
        for ra, rb in zip(topk_a.results, topk_c.results):
            _assert_identical(ra, rb, "exact-topk")


class TestDenseFirstRebindParity:
    """The serving layer rebinding path: substrate → instance → solver."""

    @pytest.mark.parametrize("make_solver", HEURISTICS)
    def test_rebound_instances_solve_identically(self, engine, workload, make_solver):
        solver = make_solver()
        for query in workload[:2]:
            instance = engine.build_instance(query)
            rebound = instance.dense.to_problem_instance(query)
            a = twin(solver).solve(instance)
            b = solver.solve(rebound)
            _assert_identical(a, b, (solver.name, query.keywords))
            assert list(rebound.weights.items()) == list(instance.weights.items())


class TestCachedSubstrate:
    """A solve on an instance-cache hit leaves the cached substrate as built."""

    @pytest.mark.parametrize("name", ["greedy", "tgen", "app", "exact"])
    def test_a_solve_on_a_cache_hit_keeps_every_slot(self, engine, workload, name):
        query = _tiny_window_instance(engine).query if name == "exact" else workload[0]

        def request(algorithm, k=1):
            return QueryRequest.create(
                query.keywords, query.delta, region=query.region,
                algorithm=algorithm, k=k,
            )

        with QueryService(engine, max_workers=1, result_cache_size=0) as service:
            # The entry is built by a Greedy solve, which reads only the
            # arrays.
            service.execute(request("greedy"))
            (key,) = service._instance_cache.keys()
            substrate, _ = service._instance_cache.get(key)
            built = {slot: getattr(substrate, slot) for slot in DenseInstance.__slots__}
            solver = engine.solver(name)
            fresh = engine.build_instance(query)
            expected = [solver.solve(fresh), solver.solve_topk(fresh, k=3)]
            for k, want in zip((1, 3), expected):
                got = service.execute(request(name, k))
                for slot, value in built.items():
                    assert getattr(substrate, slot) is value, (name, k, slot)
                if k == 1:
                    _assert_identical(want, got, (name, k))
                else:
                    _assert_topk_identical(want, got, (name, k))
            assert service.stats().instance_hits == 2
