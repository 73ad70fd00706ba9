"""Solver-time: dense position-indexed substrate vs the dict reference loops.

Not a paper figure — this benchmarks the dense solver substrate
(:mod:`repro.core.dense`). The claim: running the paper's online algorithms on
the position-indexed :class:`~repro.core.dense.DenseInstance` arrays is **at
least 2x faster** than the dict reference backend for Greedy and TGEN on the
largest configuration, while producing byte-identical results.

Three checks:

1. **Solver-time throughput** — total ``solve`` time over a mixed windowed /
   window-less workload, same built instances, backend switched with
   ``ProblemInstance.with_backend`` — so the comparison isolates the solver
   hot loops (instance building, measured by ``bench_scoring.py``, is out of
   the picture). The ≥2x bar is asserted for Greedy and TGEN on the largest
   configuration. Greedy solves in well under a millisecond, so its loop runs
   ``GREEDY_INNER`` passes per timing sample to get out of timer jitter.
2. **Fidelity** — every timed query is first checked byte-identical across the
   backends (same region node/edge sets, bit-equal weight and length); APP and
   Exact identity is enforced at tier-1 by
   ``tests/core/test_solver_backend_parity.py``.
3. **Perf trajectory record** — set ``REPRO_BENCH_JSON=<path>`` (the
   ``make bench-json`` target does) to write the measured numbers as JSON, so
   the repo's performance history is recorded run over run.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_solver_backend.py -q -s
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List

from repro.core.greedy import GreedySolver
from repro.core.tgen import TGENSolver
from repro.datasets.ny import build_ny_like
from repro.datasets.queries import generate_workload
from repro.evaluation.reporting import format_table
from repro.evaluation.runner import ExperimentRunner
from repro.service.bundle import IndexBundle

from benchmarks.conftest import FULL_SCALE, SMOKE_SCALE

# (label, rows, cols, objects, clusters, delta): the dict loops pay hashing and
# rank re-derivation per candidate and per tuple pair, the dense loops flat
# list indexing over precomputed columns — the gap grows with window size and
# budget, so the ≥2x bar is asserted on the largest config.
if FULL_SCALE:
    CONFIGS = [
        ("small", 24, 24, 2000, 10, 1200.0, 2.0),
        ("medium", 48, 48, 9000, 30, 1600.0, 2.0),
        ("large", 80, 80, 26000, 70, 2400.0, 4.0),
    ]
elif SMOKE_SCALE:
    CONFIGS = [("small", 20, 20, 1500, 8, 900.0, 1.5)]
else:
    CONFIGS = [
        ("small", 24, 24, 2000, 10, 1200.0, 2.0),
        ("large", 64, 64, 16000, 55, 2000.0, 3.0),
    ]

SEED = 42
MIN_SPEEDUP_LARGEST = 2.0
REPEATS = 1 if SMOKE_SCALE else 3
GREEDY_INNER = 2 if SMOKE_SCALE else 25


def _build_workload(dataset, num_queries: int, delta: float, area_km2: float):
    """Mixed workload: windowed queries plus window-less variants."""
    windowed = generate_workload(
        dataset,
        num_queries=num_queries,
        num_keywords=3,
        delta=delta,
        area_km2=area_km2,
        seed=9,
    )
    return windowed + [query.with_region(None) for query in windowed[: num_queries // 2]]


def _time_solves(solver, instances, inner: int) -> float:
    """Best-of-REPEATS total solve time over the instances (x inner passes)."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(inner):
            for instance in instances:
                solver.solve(instance)
        best = min(best, time.perf_counter() - start)
    return best


def test_bench_solver_backend_dense_2x():
    rows_out: List[List[object]] = []
    records: List[Dict[str, object]] = []
    largest_speedups: Dict[str, float] = {}
    for label, rows, cols, objects, clusters, delta, area in CONFIGS:
        dataset = build_ny_like(
            rows=rows, cols=cols, block_size=120.0,
            num_objects=objects, num_clusters=clusters, seed=SEED,
        )
        bundle = IndexBundle.from_dataset(dataset)
        runner = ExperimentRunner.from_bundle(bundle)
        num_queries = 2 if SMOKE_SCALE else 4
        queries = _build_workload(dataset, num_queries, delta, area)
        built = [runner.build(query) for query in queries]
        dict_instances = [instance.with_backend("dict") for instance in built]
        dense_instances = [instance.with_backend("dense") for instance in built]

        # --- fidelity first (also warms every path) ---
        solvers = [(GreedySolver(), GREEDY_INNER), (TGENSolver(), 1)]
        for solver, _ in solvers:
            for instance_d, instance_n in zip(dict_instances, dense_instances):
                a = solver.solve(instance_d)
                b = solver.solve(instance_n)
                assert a.region.nodes == b.region.nodes, (label, solver.name)
                assert a.region.edges == b.region.edges, (label, solver.name)
                assert a.weight == b.weight and a.length == b.length, (
                    "solver results must be byte-identical across backends"
                )

        config_record: Dict[str, object] = {
            "config": label,
            "rows": rows,
            "cols": cols,
            "objects": objects,
            "delta": delta,
            "queries": len(queries),
            "repeats": REPEATS,
        }
        for solver, inner in solvers:
            dict_seconds = _time_solves(solver, dict_instances, inner)
            dense_seconds = _time_solves(solver, dense_instances, inner)
            speedup = dict_seconds / dense_seconds
            largest_speedups[solver.name] = speedup
            rows_out.append([
                f"{label} ({rows}x{cols}, Δ={delta:.0f})",
                solver.name,
                dict_seconds,
                dense_seconds,
                f"{speedup:.1f}x",
            ])
            config_record[f"{solver.name.lower()}_dict_seconds"] = dict_seconds
            config_record[f"{solver.name.lower()}_dense_seconds"] = dense_seconds
            config_record[f"{solver.name.lower()}_speedup"] = speedup
        records.append(config_record)

    print()
    print(format_table(
        ["configuration", "solver", "dict (s)", "dense (s)", "speedup"],
        rows_out,
        title="solver time on shared instances: dict reference vs dense substrate",
    ))

    json_path = os.environ.get("REPRO_BENCH_JSON")
    if json_path:
        payload = {
            "benchmark": "bench_solver_backend",
            "smoke": SMOKE_SCALE,
            "full": FULL_SCALE,
            "configs": records,
            "largest_speedups": largest_speedups,
        }
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {json_path}")

    if SMOKE_SCALE:
        # Smoke scale asserts identity (above) and records the numbers; the 2x
        # bar is a large-configuration claim — sub-millisecond solves on tiny
        # windows are dominated by fixed per-call overhead.
        return
    for solver_name, speedup in largest_speedups.items():
        assert speedup >= MIN_SPEEDUP_LARGEST, (
            f"the dense substrate must be >= {MIN_SPEEDUP_LARGEST:.0f}x faster than "
            f"the dict backend for {solver_name} on the largest configuration, "
            f"got {speedup:.1f}x"
        )
