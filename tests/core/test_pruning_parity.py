"""Seeded pruning parity: bound-licensed skips vs the unpruned reference paths.

Bound-based pruning (:mod:`repro.core.bounds` plus the skip branches in the
Exact, Greedy and TGEN solvers and the instance builder's zero-mass window
skip) is required to be *skip-only*: for every solver, every scoring mode,
windowed as well as window-less queries, both graph backends (frozen CSR and
dict) and both solver substrates (dense and dict), the results under
``pruning="on"`` must be **byte-identical** to ``pruning="off"`` — same
regions, same tie-breaks, bit-equal floats. Only skip counters and runtime may
differ.

This is the pruning counterpart of the dense-substrate suite in
``test_solver_backend_parity.py`` (same dataset, seeds and workload shape, so
failures here isolate the pruning layer). Admissibility of the bounds
themselves is covered separately in ``test_bounds.py``.
"""

from __future__ import annotations

import pytest

from repro.core.app import APPSolver
from repro.core.exact import ExactSolver
from repro.core.greedy import GreedySolver
from repro.core.instance import build_instance
from repro.core.query import LCMSRQuery
from repro.core.tgen import TGENSolver
from repro.datasets.ny import build_ny_like
from repro.datasets.queries import generate_workload
from repro.network.subgraph import Rectangle
from repro.service.bundle import IndexBundle
from repro.textindex.relevance import ScoringMode

SEED = 23
MODES = [
    ScoringMode.TEXT_RELEVANCE,
    ScoringMode.RATING_IF_MATCH,
    ScoringMode.LANGUAGE_MODEL,
]
# (scoring mode, frozen): frozen variants window the bundle's CSR snapshot (and
# attach the dense substrate eagerly); the other windows the dict-backed
# network, so with_backend("dense") builds the substrate on demand.
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

    def build_for(query, pruning="auto"):
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


class TestHeuristicPruningParity:
    @pytest.mark.parametrize(
        "make_solver",
        [GreedySolver, TGENSolver, APPSolver],
        ids=["greedy", "tgen", "app"],
    )
    def test_solve_is_byte_identical(self, build, workload, make_solver):
        solver = make_solver()
        for query in workload:
            for backend in ("dict", "dense"):
                instance = build(query).with_backend(backend)
                pruned = solver.solve(instance.with_pruning("on"))
                reference = solver.solve(instance.with_pruning("off"))
                _assert_identical(
                    pruned,
                    reference,
                    (solver.name, backend, query.keywords, query.region),
                )

    @pytest.mark.parametrize(
        "make_solver",
        [GreedySolver, TGENSolver, APPSolver],
        ids=["greedy", "tgen", "app"],
    )
    def test_topk_is_byte_identical(self, build, workload, make_solver):
        solver = make_solver()
        for query in workload[:2]:
            instance = build(query)
            pruned = solver.solve_topk(instance.with_pruning("on"), k=3)
            reference = solver.solve_topk(instance.with_pruning("off"), k=3)
            _assert_topk_identical(pruned, reference, (solver.name, query.keywords))

    def test_policy_auto_matches_policy_on(self, build, workload):
        # "auto" currently resolves to enabled; it must stay on the pruned
        # side of the parity contract (and therefore also equal "off").
        solver = TGENSolver()
        query = workload[0]
        instance = build(query)
        auto = solver.solve(instance.with_pruning("auto"))
        on = solver.solve(instance.with_pruning("on"))
        _assert_identical(auto, on, "auto-vs-on")


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
            for backend in ("dict", "dense"):
                bound = instance.with_backend(backend)
                pruned = solver.solve(bound.with_pruning("on"))
                reference = solver.solve(bound.with_pruning("off"))
                _assert_identical(pruned, reference, ("exact", backend))

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_branch_and_bound_topk_matches_exhaustive_enumeration(self, build, k):
        # pruning="off" runs the plain exhaustive enumerator, so this asserts
        # the B&B top-k returns the same k results in the same order as full
        # enumeration — the strongest form of the skip-only contract.
        solver = ExactSolver(max_nodes=16)
        for instance in self._tiny_window_instances(build):
            pruned = solver.solve_topk(instance.with_pruning("on"), k=k)
            exhaustive = solver.solve_topk(instance.with_pruning("off"), k=k)
            _assert_topk_identical(pruned, exhaustive, ("exact-topk", k))

    def test_pruned_runs_report_skip_counters(self, build):
        # The counters are the observable difference pruning IS allowed to
        # make: the pruned run must report them, the reference run reports
        # zero skips.
        solver = ExactSolver(max_nodes=16)
        for instance in self._tiny_window_instances(build):
            pruned = solver.solve_topk(instance.with_pruning("on"), k=3)
            reference = solver.solve_topk(instance.with_pruning("off"), k=3)
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
            reference = solver.solve(build(query, pruning="off"))
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
        reference = build(query, pruning="off")
        assert pruned.num_candidate_nodes == reference.num_candidate_nodes
        assert pruned.weights == {}


class TestDenseFirstRebindParity:
    """The serving layer's substrate-rebind path must preserve the policy."""

    def test_rebound_instances_carry_the_policy_and_solve_identically(
        self, build, workload
    ):
        query = workload[0]
        instance = build(query)
        if instance.dense is None:
            pytest.skip("dict-backed bundle does not attach the substrate eagerly")
        for policy in ("on", "off"):
            rebound = instance.dense.to_problem_instance(query, pruning=policy)
            assert rebound.pruning == policy
            for make_solver in (GreedySolver, TGENSolver, APPSolver):
                solver = make_solver()
                a = solver.solve(instance.with_pruning(policy))
                b = solver.solve(rebound)
                _assert_identical(a, b, (solver.name, policy, "dense-first"))
