"""Parameter and query-argument sweeps (the x-axes of the paper's figures).

A :class:`ParameterSweep` runs a family of experiment settings — each a callable that
produces solvers and/or query workloads — and records one :class:`SweepPoint` per
x-axis value. The benchmark modules use it to regenerate each figure's series; the
sweep object also renders itself as a plain-text table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.query import LCMSRQuery
from repro.evaluation.runner import AlgorithmRun, ExperimentRunner, LCMSRSolverProtocol


@dataclass
class SweepPoint:
    """One x-axis point of a figure: the value plus per-algorithm measurements.

    Attributes:
        x: The x-axis value (α, β, µ, |ψ|, ∆, Λ, k, ...).
        runtimes: ``algorithm → mean runtime (seconds)``.
        weights: ``algorithm → mean region weight``.
        ratios: ``algorithm → relative ratio against the reference algorithm``.
    """

    x: float
    runtimes: Dict[str, float] = field(default_factory=dict)
    weights: Dict[str, float] = field(default_factory=dict)
    ratios: Dict[str, float] = field(default_factory=dict)


@dataclass
class ParameterSweep:
    """A complete sweep: a list of points plus the axis label, ready to print."""

    axis: str
    points: List[SweepPoint] = field(default_factory=list)

    def add_point(self, point: SweepPoint) -> None:
        """Append one x-axis point."""
        self.points.append(point)

    def algorithms(self) -> List[str]:
        """All algorithm names appearing in the sweep."""
        names: List[str] = []
        for point in self.points:
            for name in point.runtimes:
                if name not in names:
                    names.append(name)
        return names


def sweep_query_arguments(
    runner: ExperimentRunner,
    axis: str,
    settings: Sequence[Tuple[float, Sequence[LCMSRQuery]]],
    solvers: Sequence[LCMSRSolverProtocol],
    reference: str = "TGEN",
) -> ParameterSweep:
    """Run the Figure-15/16-style sweep: vary a query argument, measure all solvers.

    Args:
        runner: The experiment runner bound to a dataset.
        axis: Axis label ("keywords", "delta_km", "lambda_km2", "k", ...).
        settings: ``(x value, query workload)`` pairs, one per x-axis point.
        solvers: The solvers to compare.
        reference: Algorithm against which the relative ratio is computed (the paper
            uses TGEN because it is consistently the most accurate).

    Returns:
        The populated :class:`ParameterSweep`.
    """
    sweep = ParameterSweep(axis=axis)
    for x_value, workload in settings:
        runs = runner.run(workload, solvers)
        point = SweepPoint(x=x_value)
        reference_run: Optional[AlgorithmRun] = runs.get(reference)
        for name, run in runs.items():
            point.runtimes[name] = run.mean_runtime
            point.weights[name] = run.mean_weight
            if reference_run is not None and reference_run.outcomes:
                point.ratios[name] = run.relative_ratio_against(reference_run)
        sweep.add_point(point)
    return sweep


def sweep_solver_parameter(
    runner: ExperimentRunner,
    axis: str,
    workload: Sequence[LCMSRQuery],
    solver_factory: Callable[[float], LCMSRSolverProtocol],
    values: Sequence[float],
) -> ParameterSweep:
    """Run the Figure-7..14-style sweep: vary one solver parameter on a fixed workload.

    Args:
        runner: The experiment runner bound to a dataset.
        axis: Axis label ("alpha", "beta", "mu", ...).
        workload: The fixed query workload.
        solver_factory: Builds the solver for a given parameter value.
        values: The parameter values to try.

    Returns:
        The populated sweep; ratios are left empty (these figures report absolute
        region weight, not the relative ratio).
    """
    sweep = ParameterSweep(axis=axis)
    for value in values:
        solver = solver_factory(value)
        runs = runner.run(workload, [solver])
        run = runs[solver.name]
        point = SweepPoint(x=value)
        point.runtimes[solver.name] = run.mean_runtime
        point.weights[solver.name] = run.mean_weight
        sweep.add_point(point)
    return sweep
