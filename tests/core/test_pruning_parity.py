"""Seeded pruning parity: bound-licensed skips vs the unpruned reference paths.

Bound-based pruning (:mod:`repro.core.bounds` plus the skip branches in the
Exact, Greedy and TGEN solvers and the instance builder's zero-mass window
skip) is required to be *skip-only*: for every solver, every scoring mode,
windowed as well as window-less queries, both graph backends (frozen CSR and
dict), and both the solvers and their dict-loop reference twins
(:func:`repro.core.reference.twin`), the results of a pruned instance must be
**byte-identical** to ``with_pruning(False)`` — same regions, same tie-breaks,
bit-equal floats. Only skip counters and runtime may differ.

This is the pruning counterpart of the dense-substrate suite in
``test_solver_backend_parity.py`` (same dataset, seeds and workload shape, so
failures here isolate the pruning layer). Greedy runs on the compiled kernel
and on its Python loop (the ``kernel_path`` fixture). Admissibility of the
bounds themselves is covered separately in ``test_bounds.py``.
"""

from __future__ import annotations

import pytest

from repro.core.app import APPSolver
from repro.core.exact import ExactSolver
from repro.core.greedy import GreedySolver
from repro.core.instance import build_instance
from repro.core.query import LCMSRQuery
from repro.core.reference import twin
from repro.core.tgen import TGENSolver
from repro.datasets.ny import build_ny_like
from repro.datasets.queries import generate_workload
from repro.engine import LCMSREngine
from repro.evaluation.runner import ExperimentRunner
from repro.network.subgraph import Rectangle
from repro.service.bundle import IndexBundle
from repro.service.query_service import QueryRequest, QueryService
from repro.textindex.relevance import ScoringMode

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
    """Instance builder over one graph backend, weighted by the bundle's pipeline."""
    mode, frozen = request.param
    bundle = IndexBundle.build(dataset.network, dataset.corpus, scoring_mode=mode)
    graph = bundle.graph_view() if frozen else dataset.network

    def build_for(query, pruning=True):
        return build_instance(
            graph, query, pipeline=bundle.weight_pipeline(), pruning=pruning
        )

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


# Each heuristic; Greedy once on the kernel and once on its Python loop.
HEURISTICS = [
    pytest.param(GreedySolver, "kernel", id="greedy"),
    pytest.param(GreedySolver, "python", id="greedy-python"),
    pytest.param(TGENSolver, "kernel", id="tgen"),
    pytest.param(APPSolver, None, id="app"),
]


class TestHeuristicPruningParity:
    @pytest.mark.parametrize(
        "make_solver, kernel_path", HEURISTICS, indirect=["kernel_path"]
    )
    def test_solve_is_byte_identical(self, build, workload, make_solver, kernel_path):
        solver = make_solver()
        for query in workload:
            answers = {}
            for backend, run in (("dict", twin(solver)), ("dense", solver)):
                instance = build(query)
                pruned = run.solve(instance.with_pruning(True))
                reference = run.solve(instance.with_pruning(False))
                _assert_identical(
                    pruned,
                    reference,
                    (solver.name, backend, query.keywords, query.region),
                )
                answers[backend] = pruned
            _assert_identical(
                answers["dense"], answers["dict"], (solver.name, query.keywords)
            )

    @pytest.mark.parametrize(
        "make_solver, kernel_path", HEURISTICS, indirect=["kernel_path"]
    )
    def test_topk_is_byte_identical(self, build, workload, make_solver, kernel_path):
        solver = make_solver()
        for query in workload[:2]:
            instance = build(query)
            pruned = solver.solve_topk(instance.with_pruning(True), k=3)
            reference = solver.solve_topk(instance.with_pruning(False), k=3)
            _assert_topk_identical(pruned, reference, (solver.name, query.keywords))
            _assert_topk_identical(
                pruned,
                twin(solver).solve_topk(instance.with_pruning(False), k=3),
                (solver.name, "twin", query.keywords),
            )


class TestExactPruningParity:
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
            pruned = solver.solve(instance.with_pruning(True))
            reference = solver.solve(instance.with_pruning(False))
            _assert_identical(pruned, reference, "exact")

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_branch_and_bound_topk_matches_exhaustive_enumeration(self, build, k):
        # pruning=False runs the plain exhaustive enumerator, so this asserts
        # the B&B top-k returns the same k results in the same order as full
        # enumeration — the strongest form of the skip-only contract.
        solver = ExactSolver(max_nodes=16)
        for instance in self._tiny_window_instances(build):
            pruned = solver.solve_topk(instance.with_pruning(True), k=k)
            exhaustive = solver.solve_topk(instance.with_pruning(False), k=k)
            _assert_topk_identical(pruned, exhaustive, ("exact-topk", k))

    def test_pruned_runs_report_skip_counters(self, build):
        # The counters are the observable difference pruning IS allowed to
        # make: the pruned run must report them, the reference run reports
        # zero skips.
        solver = ExactSolver(max_nodes=16)
        for instance in self._tiny_window_instances(build):
            pruned = solver.solve_topk(instance.with_pruning(True), k=3)
            reference = solver.solve_topk(instance.with_pruning(False), k=3)
            assert "exact_subsets_considered" in pruned.stats
            assert "exact_subsets_considered" in reference.stats
            assert (
                pruned.stats["exact_subsets_considered"]
                <= reference.stats["exact_subsets_considered"]
            )


class TestZeroMassWindowSkip:
    def test_unmatched_keywords_in_a_window_solve_identically(self, build):
        # No object matches, so the window's mass bound is exactly 0.0 and the
        # builder skips the σ_v computation entirely under pruning — the
        # solved result must still match the unpruned build bit for bit.
        region = Rectangle(600.0, 600.0, 1200.0, 1200.0)
        query = LCMSRQuery.create(
            ["zzz-not-a-term-in-the-vocabulary"], delta=500.0, region=region
        )
        # The skip fires at *build* time, so the reference instance must come
        # from a build with pruning off (sibling views share weights and would
        # compare the skipped build against itself).
        for make_solver in (GreedySolver, TGENSolver, APPSolver):
            solver = make_solver()
            pruned = solver.solve(build(query))
            reference = solver.solve(build(query, pruning=False))
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
        reference = build(query, pruning=False)
        assert pruned.num_candidate_nodes == reference.num_candidate_nodes
        assert pruned.weights == {}


class TestDenseFirstRebindParity:
    """The serving layer's substrate-rebind path must prune like a fresh build."""

    def test_rebound_instances_carry_the_policy_and_solve_identically(
        self, build, workload, kernel_path
    ):
        query = workload[0]
        instance = build(query)
        rebound = instance.dense.to_problem_instance(query)
        assert rebound.pruning is True
        for pruning in (True, False):
            for make_solver in (GreedySolver, TGENSolver, APPSolver):
                solver = make_solver()
                a = solver.solve(instance.with_pruning(pruning))
                b = solver.solve(rebound.with_pruning(pruning))
                _assert_identical(a, b, (solver.name, pruning, "dense-first"))


class _RecordingSolver(GreedySolver):
    """Greedy that keeps every instance the serving layer hands it."""

    def __init__(self):
        super().__init__()
        self.instances = []

    def solve(self, instance):
        self.instances.append(instance)
        return super().solve(instance)


class TestServingPathsArePruned:
    """Every instance a serving or experiment path builds carries ``pruning=True``."""

    @pytest.fixture(scope="class")
    def bundle(self, dataset):
        return IndexBundle.build(dataset.network, dataset.corpus)

    def test_engine_build_instance(self, bundle, workload):
        engine = LCMSREngine.from_bundle(bundle)
        assert engine.build_instance(workload[0]).pruning is True

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
            timings = [service.execute_timed(request)[1] for request in requests]
        assert [t.instance_cache_hit for t in timings] == [False, True]
        assert [instance.pruning for instance in recorder.instances] == [True, True]

    def test_experiment_runner_build(self, bundle, workload):
        runner = ExperimentRunner.from_bundle(bundle)
        assert runner.build(workload[0]).pruning is True
