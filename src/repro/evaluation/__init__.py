"""Experiment harness: metrics, runners, parameter sweeps, reporting, survey.

This subpackage is what the ``benchmarks/`` directory drives. It knows how to run a
set of LCMSR queries through any subset of the solvers, collect runtimes and region
weights, compute the paper's accuracy measure (the relative ratio against TGEN),
sweep algorithm parameters and query arguments, simulate the Section 7.5 annotator
study, and print the resulting series in the same shape as the paper's figures.
"""

from repro.evaluation.metrics import relative_ratio, average_relative_ratio, mean
from repro.evaluation.runner import ExperimentRunner, AlgorithmRun, QueryOutcome
from repro.evaluation.sweeps import ParameterSweep, SweepPoint
from repro.evaluation.survey import SimulatedAnnotator, SurveyResult, run_survey
from repro.evaluation.reporting import (
    format_table,
    format_series,
    format_service_stats,
    format_query_timings,
)

__all__ = [
    "relative_ratio",
    "average_relative_ratio",
    "mean",
    "ExperimentRunner",
    "AlgorithmRun",
    "QueryOutcome",
    "ParameterSweep",
    "SweepPoint",
    "SimulatedAnnotator",
    "SurveyResult",
    "run_survey",
    "format_table",
    "format_series",
    "format_service_stats",
    "format_query_timings",
]
