"""Seeded pruning parity: the pruned solvers vs their unpruned references.

Bound-based pruning (:mod:`repro.core.bounds` plus the skip branches in the
Exact, Greedy and TGEN solvers and the instance builder's zero-mass window
skip) is required to be *skip-only*. Every instance is pruned, so the
references are the solvers' twins (:func:`repro.core.reference.twin`), which
never prune: TGEN's twin skips no edge, Greedy's keeps every candidate and
:class:`~repro.core.reference.ReferenceExact` enumerates every connected
subset. The zero-mass skip's reference is the scorer weight source
(``build_instance(scorer=...)``), which computes σ_v object by object. For
every solver, every scoring mode, windowed as well as window-less queries and
both graph inputs (frozen CSR and a ``RoadNetwork``), the results must be
**byte-identical** to the reference's — same regions, same tie-breaks,
bit-equal floats. Only skip counters and runtime may differ.

This is the pruning counterpart of the dense-substrate suite in
``test_solver_backend_parity.py`` (same dataset, seeds and workload shape, so
failures here isolate the pruning layer). Greedy and TGEN run on the compiled
kernel, and each heuristic case runs on the instance as built and again as
the serving layer's instance cache rebinds it (the ``route`` fixture).
Admissibility of the bounds themselves is covered separately in
``test_bounds.py``.
"""

from __future__ import annotations

import pytest

from repro.core.app import APPSolver
from repro.core.exact import ExactSolver
from repro.core.greedy import GreedySolver
from repro.core.instance import build_instance
from repro.core.query import LCMSRQuery
from repro.core.reference import ReferenceExact, twin
from repro.core.tgen import TGENSolver
from repro.datasets.ny import build_ny_like
from repro.datasets.queries import generate_workload
from repro.engine import LCMSREngine
from repro.evaluation.runner import ExperimentRunner
from repro.network.subgraph import Rectangle
from repro.service.bundle import IndexBundle
from repro.service.query_service import QueryRequest, QueryService
from repro.textindex.relevance import RelevanceScorer, ScoringMode

from tests.conftest import assert_tgen_work_matches_twin

SEED = 23
MODES = [
    ScoringMode.TEXT_RELEVANCE,
    ScoringMode.RATING_IF_MATCH,
    ScoringMode.LANGUAGE_MODEL,
]
# (scoring mode, frozen): frozen variants window the bundle's CSR snapshot (and
# attach the dense substrate eagerly); the other windows the dict-backed
# network, so the substrate is built on first access.
GRAPH_VARIANTS = [(mode, True) for mode in MODES] + [
    (ScoringMode.TEXT_RELEVANCE, False)
]


@pytest.fixture(scope="module")
def dataset():
    return build_ny_like(
        rows=14, cols=14, block_size=120.0, num_objects=420, num_clusters=6, seed=SEED
    )


@pytest.fixture(
    scope="module",
    params=GRAPH_VARIANTS,
    ids=lambda param: f"{param[0].value}-{'csr' if param[1] else 'dict'}",
)
def build(request, dataset):
    """Instance builder over one graph input, weighted by the bundle's pipeline,
    or with ``scorer=True`` by the object-loop scorer."""
    mode, frozen = request.param
    bundle = IndexBundle.build(dataset.network, dataset.corpus, scoring_mode=mode)
    graph = bundle.graph_view() if frozen else dataset.network
    scorer = RelevanceScorer(dataset.corpus, bundle.mapping, mode=mode)

    def build_for(query, scorer_path=False):
        if scorer_path:
            return build_instance(graph, query, scorer=scorer)
        return build_instance(graph, query, pipeline=bundle.weight_pipeline())

    return build_for


@pytest.fixture(scope="module")
def workload(dataset):
    windowed = generate_workload(
        dataset, num_queries=3, num_keywords=3, delta=700.0, area_km2=0.5, seed=SEED
    )
    # Three windowed queries plus one window-less one: the zero-mass window
    # skip only arms on windowed queries, while the TGEN edge skip and the
    # Greedy compaction fire on both shapes.
    return windowed + [windowed[0].with_region(None)]


def _assert_identical(result_a, result_b, context):
    assert result_a.region.nodes == result_b.region.nodes, context
    assert result_a.region.edges == result_b.region.edges, context
    assert result_a.weight == result_b.weight, context  # bit-equal, no approx
    assert result_a.length == result_b.length, context
    assert result_a.scaled_weight == result_b.scaled_weight, context


def _assert_topk_identical(topk_a, topk_b, context):
    assert len(topk_a.results) == len(topk_b.results), context
    for rank, (result_a, result_b) in enumerate(zip(topk_a.results, topk_b.results)):
        _assert_identical(result_a, result_b, (context, f"rank {rank}"))


HEURISTICS = [
    pytest.param(GreedySolver, id="greedy"),
    pytest.param(TGENSolver, id="tgen"),
    pytest.param(APPSolver, id="app"),
]


class TestHeuristicPruningParity:
    @pytest.mark.parametrize("make_solver", HEURISTICS)
    def test_solve_is_byte_identical(self, build, workload, make_solver, route):
        solver = make_solver()
        for query in workload:
            instance = route(build(query))
            pruned = solver.solve(instance)
            reference = twin(solver).solve(instance)
            context = (solver.name, query.keywords, query.region)
            _assert_identical(pruned, reference, context)
            if isinstance(solver, TGENSolver):
                assert_tgen_work_matches_twin(pruned, reference, context)

    @pytest.mark.parametrize("make_solver", HEURISTICS)
    def test_topk_is_byte_identical(self, build, workload, make_solver, route):
        solver = make_solver()
        for query in workload[:2]:
            instance = route(build(query))
            _assert_topk_identical(
                solver.solve_topk(instance, k=3),
                twin(solver).solve_topk(instance, k=3),
                (solver.name, query.keywords),
            )


class TestExactPruningParity:
    """Exact's branch-and-bound against :class:`ReferenceExact`'s exhaustive
    enumeration."""

    def _tiny_window_instances(self, build):
        # Windows of ~2 blocks keep the node count within Exact's reach.
        instances = []
        for anchor in (600.0, 900.0, 1200.0):
            region = Rectangle(anchor, anchor, anchor + 260.0, anchor + 260.0)
            query = LCMSRQuery.create(
                ["restaurant", "cafe", "bar"], delta=400.0, region=region
            )
            instance = build(query)
            if 0 < instance.num_candidate_nodes <= 16 and instance.has_relevant_nodes:
                instances.append(instance)
        if not instances:
            pytest.skip("no tiny window with relevant nodes in this dataset")
        return instances

    def test_branch_and_bound_solve_is_byte_identical(self, build):
        solver = ExactSolver(max_nodes=16)
        for instance in self._tiny_window_instances(build):
            pruned = solver.solve(instance)
            reference = ReferenceExact(max_nodes=16).solve(instance)
            _assert_identical(pruned, reference, "exact")

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_branch_and_bound_topk_matches_exhaustive_enumeration(self, build, k):
        # ReferenceExact runs the plain exhaustive enumerator, so this asserts
        # the B&B top-k returns the same k results in the same order as full
        # enumeration — the strongest form of the skip-only contract.
        solver = ExactSolver(max_nodes=16)
        for instance in self._tiny_window_instances(build):
            pruned = solver.solve_topk(instance, k=k)
            exhaustive = twin(solver).solve_topk(instance, k=k)
            _assert_topk_identical(pruned, exhaustive, ("exact-topk", k))

    def test_pruned_runs_report_skip_counters(self, build):
        # The counters are the observable difference pruning IS allowed to
        # make: the pruned run considers no more subsets than the reference,
        # which reports zero skips.
        solver = ExactSolver(max_nodes=16)
        for instance in self._tiny_window_instances(build):
            pruned = solver.solve_topk(instance, k=3)
            reference = twin(solver).solve_topk(instance, k=3)
            assert (
                pruned.stats["exact_subsets_considered"]
                <= reference.stats["exact_subsets_considered"]
            )
            assert reference.stats["exact_branches_pruned"] == 0.0
            assert reference.stats["exact_anchors_skipped"] == 0.0


class TestZeroMassWindowSkip:
    def test_unmatched_keywords_in_a_window_solve_identically(self, build):
        # No object matches, so the window's mass bound is exactly 0.0 and the
        # pipeline builder skips the σ_v computation entirely — the solved
        # result must still match the scorer build, which computes σ_v object
        # by object, bit for bit.
        region = Rectangle(600.0, 600.0, 1200.0, 1200.0)
        query = LCMSRQuery.create(
            ["zzz-not-a-term-in-the-vocabulary"], delta=500.0, region=region
        )
        for make_solver in (GreedySolver, TGENSolver, APPSolver):
            solver = make_solver()
            pruned = solver.solve(build(query))
            reference = solver.solve(build(query, scorer_path=True))
            _assert_identical(pruned, reference, (solver.name, "zero-mass"))
            assert pruned.region.is_empty

    def test_zero_mass_skip_keeps_the_window_graph_intact(self, build):
        # The skip must only drop the σ computation, never graph nodes: |V_Q|
        # feeds TGEN's θ scaling, so both builds must agree on it exactly.
        region = Rectangle(600.0, 600.0, 1200.0, 1200.0)
        query = LCMSRQuery.create(
            ["zzz-not-a-term-in-the-vocabulary"], delta=500.0, region=region
        )
        pruned = build(query)
        reference = build(query, scorer_path=True)
        assert pruned.num_candidate_nodes == reference.num_candidate_nodes
        assert pruned.weights == reference.weights == {}


class TestDenseFirstRebindParity:
    """The serving layer's substrate-rebind path must prune like a fresh build."""

    def test_rebound_instances_take_the_same_skips(self, build, workload):
        query = workload[0]
        instance = build(query)
        rebound = instance.dense.to_problem_instance(query)
        for make_solver in (GreedySolver, TGENSolver, APPSolver):
            solver = make_solver()
            a = solver.solve(instance)
            b = solver.solve(rebound)
            _assert_identical(a, b, (solver.name, "dense-first"))
            _assert_identical(twin(solver).solve(rebound), b, (solver.name, "twin"))
            assert a.stats == b.stats, solver.name


class _RecordingSolver(GreedySolver):
    """Greedy that keeps every instance the serving layer hands it."""

    def __init__(self):
        super().__init__()
        self.instances = []

    def solve(self, instance):
        self.instances.append(instance)
        return super().solve(instance)


def _assert_solves_like_the_twins(instance, context):
    for make_solver in (GreedySolver, TGENSolver, APPSolver):
        solver = make_solver()
        result = solver.solve(instance)
        reference = twin(solver).solve(instance)
        _assert_identical(result, reference, (solver.name, context))
        if isinstance(solver, TGENSolver):
            assert_tgen_work_matches_twin(result, reference, context)


class TestServingPathsMatchTheTwins:
    """Every instance a serving or experiment path builds solves, skips taken,
    exactly as the twins solve it."""

    @pytest.fixture(scope="class")
    def bundle(self, dataset):
        return IndexBundle.build(dataset.network, dataset.corpus)

    def test_engine_build_instance(self, bundle, workload):
        engine = LCMSREngine.from_bundle(bundle)
        for query in workload:
            _assert_solves_like_the_twins(
                engine.build_instance(query), (query.keywords, query.region)
            )

    def test_query_service_miss_and_the_instance_hit_after_it(self, bundle, workload,
                                                               monkeypatch):
        engine = LCMSREngine.from_bundle(bundle)
        recorder = _RecordingSolver()
        monkeypatch.setitem(engine._solvers, "recorder", recorder)
        query = workload[0]
        # Same keywords and window, different ∆: the second request misses the
        # result cache and rebinds the first one's cached substrate.
        requests = [
            QueryRequest.create(
                query.keywords, delta, region=query.region, algorithm="recorder"
            )
            for delta in (query.delta, query.delta + 100.0)
        ]
        with QueryService(engine, max_workers=1) as service:
            served = [service.execute_timed(request) for request in requests]
        assert [timing.instance_cache_hit for _, timing in served] == [False, True]
        assert len(recorder.instances) == 2
        for (result, _), instance in zip(served, recorder.instances):
            reference = twin(GreedySolver()).solve(instance)
            _assert_identical(result, reference, ("served", instance.query.delta))
            _assert_solves_like_the_twins(instance, ("served", instance.query.delta))

    def test_experiment_runner_build(self, bundle, workload):
        runner = ExperimentRunner.from_bundle(bundle)
        for query in workload:
            _assert_solves_like_the_twins(
                runner.build(query), ("runner", query.keywords, query.region)
            )
