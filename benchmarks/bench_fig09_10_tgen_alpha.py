"""Figures 9 and 10: TGEN runtime and result quality as α varies (NY).

The paper sweeps TGEN's α over {50, 100, 200, 400, 800, 1600}: larger α coarsens the
scaled weights, shrinking the per-node tuple arrays, so runtime *and* accuracy drop.
α only matters through the bucket resolution ``⌊|VQ|/α⌋`` it induces, so the bench
expresses the axis through equivalent bucket counts (printed next to the paper's α)
to stay scale-comparable with the paper's |VQ| (see "Deviations from the paper" in
``docs/ARCHITECTURE.md``).
"""

from __future__ import annotations

from repro.core import TGENSolver
from repro.evaluation.reporting import format_table
from repro.evaluation.runner import ExperimentRunner

from benchmarks.conftest import SMOKE_SCALE

# Paper α values and the bucket resolutions they induce at the paper's window sizes
# (|VQ| around 20k): 1600 -> ~12 buckets ... 50 -> ~400 buckets. We keep the same
# resolution ladder, capped for pure-Python runtimes.
PAPER_ALPHAS = [50, 100, 200, 400, 800, 1600]
BUCKETS = [96, 64, 48, 32, 16, 8]


def test_fig09_10_tgen_vs_alpha(benchmark, ny_runner, ny_default_workload):
    rows = []
    runtimes = []
    weights = []
    for paper_alpha, buckets in zip(PAPER_ALPHAS, BUCKETS):
        solver = TGENSolver()
        solver.AUTO_BUCKETS = buckets
        runs = ny_runner.run(ny_default_workload, [solver])
        run = runs["TGEN"]
        runtimes.append(run.mean_runtime)
        weights.append(run.mean_weight)
        rows.append([paper_alpha, buckets, run.mean_runtime, run.mean_weight])

    print()
    print(
        format_table(
            ["paper alpha", "buckets here", "runtime (s)", "region weight"],
            rows,
            title="Figures 9/10 (reproduced): TGEN runtime and weight vs alpha, NY-like",
        )
    )

    # Paper shape: larger alpha (fewer buckets) -> faster and (weakly) less accurate.
    # Shape claims need statistical scale; the smoke gate only checks the sweep runs.
    if not SMOKE_SCALE:
        assert runtimes[-1] <= runtimes[0] * 1.2
        assert weights[-1] <= weights[0] * 1.02 + 1e-9

    instance = ny_runner.build(ny_default_workload[0])
    default_solver = TGENSolver()
    benchmark.pedantic(lambda: default_solver.solve(instance), rounds=1, iterations=1)
