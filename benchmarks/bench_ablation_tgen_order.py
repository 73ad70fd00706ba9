"""Ablation: TGEN's edge-processing order (Section 5).

The paper states that processing edges in BFS order is as accurate as processing them
in ascending length order while being faster (no sorting, and processed nodes' tuple
arrays can be discarded). This ablation reruns TGEN under both orders on the default
NY workload and reports runtime and region weight. TGEN's traversal seeding is listed
under "Deviations from the paper" in ``docs/ARCHITECTURE.md``.
"""

from __future__ import annotations

from repro.core import TGENSolver
from repro.evaluation.reporting import format_table


def test_ablation_tgen_edge_order(benchmark, ny_runner, ny_default_workload):
    bfs = TGENSolver(edge_order="bfs")
    by_length = TGENSolver(edge_order="length")
    runs = ny_runner.run(ny_default_workload, [bfs])
    bfs_run = runs["TGEN"]
    runs = ny_runner.run(ny_default_workload, [by_length])
    length_run = runs["TGEN"]

    print()
    print(
        format_table(
            ["edge order", "runtime (s)", "region weight"],
            [
                ["bfs (paper)", bfs_run.mean_runtime, bfs_run.mean_weight],
                ["ascending length", length_run.mean_runtime, length_run.mean_weight],
            ],
            title="Ablation (reproduced): TGEN edge-processing order, NY-like",
        )
    )

    # Paper claim: accuracy only varies slightly between the orders.
    assert bfs_run.mean_weight >= 0.9 * length_run.mean_weight

    instance = ny_runner.build(ny_default_workload[0])
    benchmark.pedantic(lambda: bfs.solve(instance), rounds=1, iterations=1)
