"""Tests for parameter sweeps and reporting (the figure-series machinery)."""

from __future__ import annotations

import pytest

from repro.core import GreedySolver, TGENSolver
from repro.datasets.queries import generate_workload
from repro.evaluation.reporting import format_series, format_table
from repro.evaluation.runner import ExperimentRunner
from repro.evaluation.sweeps import (
    ParameterSweep,
    SweepPoint,
    sweep_query_arguments,
    sweep_solver_parameter,
)


class TestSweepDataStructures:
    def test_algorithms_of_the_points(self):
        sweep = ParameterSweep(axis="alpha")
        sweep.add_point(SweepPoint(x=0.1, runtimes={"APP": 1.0}, weights={"APP": 5.0}))
        sweep.add_point(SweepPoint(x=0.5, runtimes={"APP": 0.5}, weights={"APP": 4.8}))
        assert sweep.algorithms() == ["APP"]


class TestSweepExecution:
    def test_solver_parameter_sweep(self, tiny_ny_dataset):
        runner = ExperimentRunner(tiny_ny_dataset)
        workload = generate_workload(
            tiny_ny_dataset, num_queries=2, num_keywords=2, delta=1000.0, area_km2=1.0, seed=31
        )
        sweep = sweep_solver_parameter(
            runner, "mu", workload, lambda mu: GreedySolver(mu=mu), [0.0, 0.5, 1.0]
        )
        assert [point.x for point in sweep.points] == [0.0, 0.5, 1.0]
        for point in sweep.points:
            assert "Greedy" in point.runtimes
            assert point.weights["Greedy"] >= 0.0

    def test_query_argument_sweep_with_ratio(self, tiny_ny_dataset):
        runner = ExperimentRunner(tiny_ny_dataset)
        settings = []
        for keywords in (1, 2):
            workload = generate_workload(
                tiny_ny_dataset,
                num_queries=2,
                num_keywords=keywords,
                delta=1000.0,
                area_km2=1.0,
                seed=40 + keywords,
            )
            settings.append((float(keywords), workload))
        sweep = sweep_query_arguments(
            runner, "keywords", settings, [TGENSolver(alpha=30.0), GreedySolver(0.2)]
        )
        assert len(sweep.points) == 2
        for point in sweep.points:
            assert point.ratios["TGEN"] == pytest.approx(1.0)
            assert 0.0 <= point.ratios["Greedy"] <= 1.5


class TestReporting:
    def test_format_table(self):
        table = format_table(["a", "b"], [[1, 2.34567], ["x", 0.5]], title="demo")
        assert "demo" in table
        assert "2.346" in table
        lines = table.splitlines()
        assert len(lines) == 5  # title, header, rule, two rows

    def test_format_series(self):
        sweep = ParameterSweep(axis="alpha")
        sweep.add_point(SweepPoint(x=0.1, runtimes={"APP": 1.0}, weights={"APP": 5.0}))
        text = format_series(sweep, "runtime")
        assert "alpha" in text
        assert "APP" in text
        assert "runtime" in text
