"""Figures 21 and 22: top-k LCMSR query runtime on NY and USANW.

The paper varies k from 1 to 5 with the default query arguments on both datasets and
reports that all three algorithms slow down only mildly with k, Greedy stays the
fastest, and TGEN stays faster than APP. This bench reruns the sweep and prints the
runtime series per dataset.
"""

from __future__ import annotations

import pytest

from repro.evaluation.metrics import mean
from repro.evaluation.reporting import format_table

from benchmarks.conftest import NY_PARAMS, SMOKE_SCALE, USANW_PARAMS, default_solvers

K_VALUES = [1, 2, 3, 4, 5]


def run_topk_sweep(runner, workload, params):
    solvers = default_solvers(params)
    rows = []
    per_algorithm = {solver.name: [] for solver in solvers}
    for k in K_VALUES:
        runtimes = {}
        for solver in solvers:
            times = []
            for query in workload:
                instance = runner.build(query.with_k(k))
                result = solver.solve_topk(instance, k)
                times.append(result.runtime_seconds)
            runtimes[solver.name] = mean(times)
            per_algorithm[solver.name].append(mean(times))
        rows.append([k] + [runtimes[s.name] for s in solvers])
    return [s.name for s in solvers], rows, per_algorithm


def test_fig21_topk_ny(benchmark, ny_runner, ny_default_workload):
    names, rows, per_algorithm = run_topk_sweep(ny_runner, ny_default_workload, NY_PARAMS)
    print()
    print(
        format_table(
            ["k"] + names, rows, title="Figure 21 (reproduced): top-k runtime (s), NY-like"
        )
    )
    # Paper shape: Greedy is always the fastest. Shape claims need statistical
    # scale: on the smoke windows TGEN's one kernel call and Greedy's k calls
    # are within noise of each other, so the smoke gate only checks the sweep runs.
    if not SMOKE_SCALE:
        for row in rows:
            greedy_runtime = row[1 + names.index("Greedy")]
            assert greedy_runtime <= min(row[1:]) + 1e-9

    instance = ny_runner.build(ny_default_workload[0].with_k(3))
    tgen = default_solvers(NY_PARAMS)[0]
    benchmark.pedantic(lambda: tgen.solve_topk(instance, 3), rounds=1, iterations=1)


def test_fig22_topk_usanw(benchmark, usanw_runner, usanw_default_workload):
    names, rows, per_algorithm = run_topk_sweep(
        usanw_runner, usanw_default_workload, USANW_PARAMS
    )
    print()
    print(
        format_table(
            ["k"] + names, rows, title="Figure 22 (reproduced): top-k runtime (s), USANW-like"
        )
    )
    if not SMOKE_SCALE:
        for row in rows:
            greedy_runtime = row[1 + names.index("Greedy")]
            assert greedy_runtime <= min(row[1:]) + 1e-9

    instance = usanw_runner.build(usanw_default_workload[0].with_k(3))
    tgen = default_solvers(USANW_PARAMS)[0]
    benchmark.pedantic(lambda: tgen.solve_topk(instance, 3), rounds=1, iterations=1)
