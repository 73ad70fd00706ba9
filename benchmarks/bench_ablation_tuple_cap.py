"""Ablation: capping TGEN's per-node tuple arrays.

The tuple arrays are what make TGEN's enumeration polynomial; their size is bounded by
Tmax = Nmax·⌊|VQ|/α⌋ but in dense windows they still dominate the runtime. This
ablation adds a hard per-node cap (keeping the heaviest tuples) and measures the
runtime/accuracy trade-off, which quantifies how much of the array the algorithm
actually needs. The cap is a reproduction extra, off by default (see "Deviations from
the paper" in ``docs/ARCHITECTURE.md``).
"""

from __future__ import annotations

from repro.core import TGENSolver
from repro.evaluation.reporting import format_table

CAPS = [None, 64, 16, 4]


def test_ablation_tgen_tuple_cap(benchmark, ny_runner, ny_default_workload):
    rows = []
    weights = {}
    for cap in CAPS:
        solver = TGENSolver(max_tuples_per_node=cap)
        runs = ny_runner.run(ny_default_workload, [solver])
        run = runs["TGEN"]
        weights[cap] = run.mean_weight
        rows.append(
            ["unbounded (paper)" if cap is None else cap, run.mean_runtime, run.mean_weight]
        )

    print()
    print(
        format_table(
            ["tuple cap", "runtime (s)", "region weight"],
            rows,
            title="Ablation (reproduced): TGEN per-node tuple cap, NY-like",
        )
    )

    # A tight cap cannot beat the unbounded configuration.
    assert weights[4] <= weights[None] * 1.02 + 1e-9

    instance = ny_runner.build(ny_default_workload[0])
    solver = TGENSolver(max_tuples_per_node=16)
    benchmark.pedantic(lambda: solver.solve(instance), rounds=1, iterations=1)
