"""End-to-end integration tests across the whole stack.

These tests exercise the full paper pipeline on the small NY-like dataset: index
construction → query workload → instance building through the columnar σ_v pipeline
→ all three solvers → metrics, plus the Section 7.5 MaxRS-vs-LCMSR comparison
pipeline.
"""

from __future__ import annotations

import pytest

from repro.baselines.maxrs import MaxRSSolver
from repro.core import APPSolver, GreedySolver, LCMSRQuery, TGENSolver
from repro.datasets.queries import generate_workload
from repro.evaluation.runner import ExperimentRunner
from repro.evaluation.survey import RegionJudgement, run_survey
from repro.network.shortest_path import steiner_tree_length
from repro.network.subgraph import Rectangle
from repro.textindex.relevance import RelevanceScorer


@pytest.fixture(scope="module")
def workload(tiny_ny_dataset):
    return generate_workload(
        tiny_ny_dataset, num_queries=4, num_keywords=2, delta=1200.0, area_km2=1.0, seed=77
    )


class TestFullPipeline:
    def test_all_solvers_return_valid_regions(self, tiny_ny_dataset, workload):
        runner = ExperimentRunner(tiny_ny_dataset)
        solvers = [TGENSolver(alpha=20.0), APPSolver(alpha=0.5, beta=0.1), GreedySolver(0.2)]
        runs = runner.run(workload, solvers)
        for name, run in runs.items():
            for outcome in run.outcomes:
                region = outcome.result.region
                assert region.satisfies(outcome.query.delta), name
                if not region.is_empty:
                    region.validate(runner.build(outcome.query).graph)

    def test_accuracy_ordering_holds_on_average(self, tiny_ny_dataset, workload):
        runner = ExperimentRunner(tiny_ny_dataset)
        runs = runner.run(
            workload, [TGENSolver(alpha=20.0), APPSolver(alpha=0.5, beta=0.1), GreedySolver(0.2)]
        )
        reference = runs["TGEN"]
        app_ratio = runs["APP"].relative_ratio_against(reference)
        greedy_ratio = runs["Greedy"].relative_ratio_against(reference)
        # Paper: APP stays above 90 % of TGEN; Greedy is clearly below the other two.
        assert app_ratio >= 0.85
        assert greedy_ratio <= app_ratio + 0.1

    def test_region_objects_are_relevant(self, tiny_ny_dataset, workload):
        """Every weighted node of a returned region hosts at least one object matching
        a query keyword — the index layer and the solvers agree on relevance."""
        runner = ExperimentRunner(tiny_ny_dataset)
        query = workload[0]
        instance = runner.build(query)
        result = TGENSolver(alpha=20.0).solve(instance)
        corpus = tiny_ny_dataset.corpus
        mapping = tiny_ny_dataset.mapping
        weighted_nodes = [n for n in result.region.nodes if instance.weight_of(n) > 0]
        assert weighted_nodes
        for node_id in weighted_nodes:
            objects = [corpus.get(o) for o in mapping.objects_at(node_id)]
            assert any(obj.contains_any(query.keywords) for obj in objects)


class TestMaxRSComparisonPipeline:
    def test_section_7_5_procedure(self, tiny_ny_dataset, workload):
        """Reproduce the comparison procedure: MaxRS rectangle → derive the length
        budget from the road length connecting its objects → run LCMSR → judge."""
        pairs = []
        maxrs_solver = MaxRSSolver(width=400.0, height=400.0)
        corpus = tiny_ny_dataset.corpus
        mapping = tiny_ny_dataset.mapping
        network = tiny_ny_dataset.network
        runner = ExperimentRunner(tiny_ny_dataset)
        scorer = RelevanceScorer(corpus, mapping)
        for query in workload[:3]:
            scores = {}
            for obj in corpus:
                if query.region.contains(obj.x, obj.y):
                    score = scorer.object_score(obj, query.keywords)
                    if score > 0.0:
                        scores[obj.object_id] = score
            if not scores:
                continue
            points = {oid: corpus.get(oid).location() for oid in scores}
            maxrs = maxrs_solver.solve(points, scores, window=query.region)
            if maxrs.rectangle is None:
                continue
            terminal_nodes = [mapping.node_of(oid) for oid in maxrs.covered_ids]
            budget = max(steiner_tree_length(network, terminal_nodes), 500.0)
            lcmsr_query = LCMSRQuery.create(query.keywords, delta=budget, region=query.region)
            lcmsr = TGENSolver(alpha=20.0).solve(runner.build(lcmsr_query))
            lcmsr_objects = sum(
                1
                for node_id in lcmsr.region.nodes
                for oid in mapping.objects_at(node_id)
                if oid in scores
            )
            pairs.append(
                (
                    RegionJudgement(lcmsr_objects, lcmsr.weight, True, max(lcmsr.length, 1.0)),
                    RegionJudgement(len(maxrs.covered_ids), maxrs.weight, False, budget),
                )
            )
        assert pairs, "the comparison pipeline must produce at least one judged pair"
        result = run_survey(pairs)
        assert result.queries == len(pairs)
        # The LCMSR answer should win at least half of the comparisons even on the
        # tiny dataset (the paper reports 90 % at full scale).
        assert result.lcmsr_preference_rate >= 0.5
