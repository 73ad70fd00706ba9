"""Tests for the experiment runner."""

from __future__ import annotations

import pytest

from repro.core import GreedySolver, TGENSolver
from repro.datasets.queries import generate_workload
from repro.evaluation.runner import ExperimentRunner


@pytest.fixture(scope="module")
def workload(tiny_ny_dataset):
    # The session-scoped dataset fixture comes from tests/conftest.py.
    return generate_workload(
        tiny_ny_dataset, num_queries=3, num_keywords=2, delta=1200.0, area_km2=1.0, seed=21
    )


class TestRunner:
    def test_build_instance_windows_to_query(self, tiny_ny_dataset, workload):
        runner = ExperimentRunner(tiny_ny_dataset)
        instance = runner.build(workload[0])
        assert instance.num_candidate_nodes <= tiny_ny_dataset.network.num_nodes
        assert instance.query is workload[0]

    def test_run_collects_all_outcomes(self, tiny_ny_dataset, workload):
        runner = ExperimentRunner(tiny_ny_dataset)
        runs = runner.run(workload, [GreedySolver(0.2), TGENSolver(alpha=30.0)])
        assert set(runs) == {"Greedy", "TGEN"}
        for run in runs.values():
            assert len(run.outcomes) == len(workload)
            assert run.mean_runtime >= 0.0
            assert run.mean_weight >= 0.0

    def test_relative_ratio_against_reference(self, tiny_ny_dataset, workload):
        runner = ExperimentRunner(tiny_ny_dataset)
        runs = runner.run(workload, [GreedySolver(0.2), TGENSolver(alpha=30.0)])
        ratio = runs["Greedy"].relative_ratio_against(runs["TGEN"])
        assert 0.0 <= ratio <= 1.5
