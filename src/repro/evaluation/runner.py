"""Running query workloads through the solvers and collecting per-query outcomes."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Protocol, Sequence

from repro.core.instance import ProblemInstance, build_instance
from repro.core.query import LCMSRQuery
from repro.core.result import RegionResult
from repro.datasets.synthetic import SyntheticDataset
from repro.evaluation.metrics import average_relative_ratio, mean
from repro.service.bundle import IndexBundle


class LCMSRSolverProtocol(Protocol):
    """Structural type of an LCMSR solver (APP / TGEN / Greedy / Exact)."""

    name: str

    def solve(self, instance: ProblemInstance) -> RegionResult:  # pragma: no cover
        ...


@dataclass
class QueryOutcome:
    """One (query, algorithm) execution."""

    query: LCMSRQuery
    result: RegionResult

    @property
    def weight(self) -> float:
        """Weight of the returned region."""
        return self.result.weight

    @property
    def runtime(self) -> float:
        """Solver runtime in seconds (excludes instance building)."""
        return self.result.runtime_seconds


@dataclass
class AlgorithmRun:
    """All outcomes of one algorithm over one query workload."""

    algorithm: str
    outcomes: List[QueryOutcome] = field(default_factory=list)

    @property
    def mean_runtime(self) -> float:
        """Mean solver runtime over the workload, in seconds."""
        return mean([outcome.runtime for outcome in self.outcomes])

    @property
    def mean_weight(self) -> float:
        """Mean region weight over the workload."""
        return mean([outcome.weight for outcome in self.outcomes])

    def weights(self) -> List[float]:
        """Per-query region weights, in workload order."""
        return [outcome.weight for outcome in self.outcomes]

    def relative_ratio_against(self, reference: "AlgorithmRun") -> float:
        """The paper's accuracy measure: mean per-query weight ratio vs. ``reference``."""
        return average_relative_ratio(self.weights(), reference.weights())


class ExperimentRunner:
    """Builds instances once per query and runs any number of solvers over them.

    Instances take σ_v from the bundle's columnar weight pipeline over its frozen
    CSR network, exactly like the engine's.

    Args:
        dataset: The dataset to query.
    """

    def __init__(self, dataset: SyntheticDataset) -> None:
        self._bundle = IndexBundle.from_dataset(dataset)

    @classmethod
    def from_bundle(cls, bundle: IndexBundle) -> "ExperimentRunner":
        """Create a runner over an existing bundle (e.g. one loaded from an artifact).

        Args:
            bundle: The prebuilt (or artifact-loaded) index state.

        Returns:
            A runner that shares the bundle's indexes without any build work.
        """
        runner = cls.__new__(cls)
        runner._bundle = bundle
        return runner

    def build(self, query: LCMSRQuery) -> ProblemInstance:
        """Build the solver input for one query."""
        return build_instance(
            self._bundle.graph_view(), query, pipeline=self._bundle.weight_pipeline()
        )

    def run(
        self,
        queries: Sequence[LCMSRQuery],
        solvers: Sequence[LCMSRSolverProtocol],
    ) -> Dict[str, AlgorithmRun]:
        """Run every solver on every query.

        Instances are built once per query and shared across solvers so that runtime
        comparisons reflect only the algorithms, as in the paper.

        Returns:
            ``algorithm name → AlgorithmRun``.
        """
        runs: Dict[str, AlgorithmRun] = {solver.name: AlgorithmRun(solver.name) for solver in solvers}
        for query in queries:
            instance = self.build(query)
            for solver in solvers:
                result = solver.solve(instance)
                runs[solver.name].outcomes.append(QueryOutcome(query=query, result=result))
        return runs
