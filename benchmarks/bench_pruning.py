"""Bound-based pruning: branch-and-bound top-k and skip-aware heuristics.

Not a paper figure — this benchmarks the bound/skip subsystem
(:mod:`repro.core.bounds` plus the skip branches in the solvers). The claim:
on sparse-relevance instances (few positive-weight nodes, the regime region
queries live in), the Exact solver's branch-and-bound ``solve_topk`` is **at
least 2x faster** than exhaustive enumeration on the largest configuration,
while returning byte-identical results — same k regions, same order, bit-equal
scores.

Three checks:

1. **Top-k branch-and-bound throughput** — ``ExactSolver.solve_topk(k=5)``
   under ``with_pruning(True)`` vs ``with_pruning(False)`` on controlled
   grid instances whose positive weights cluster on a few nodes (anchor
   cones past the last relevant node are skipped wholesale; branches that
   forbid every relevant node die against the k-incumbent heap). The ≥2x
   bar is asserted on the largest configuration; identity is asserted on
   every configuration.
2. **Heuristic skip accounting** — Greedy and TGEN run a real indexed
   workload (NY-like dataset through the engine) pruned vs unpruned;
   identity is asserted and the skip/visit counters the pruned runs report
   (``edges_skipped``, ``greedy_candidates_compacted``, the Exact
   ``exact_*`` counters) are recorded. No speedup bar here — these skips
   are modest by design and the counters are the observable.
3. **Perf trajectory record** — set ``REPRO_BENCH_JSON=<path>`` (the
   ``make bench-json`` target does) to write the measured numbers, including
   the counters, as JSON.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_pruning.py -q -s
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List

from repro.core.exact import ExactSolver
from repro.core.greedy import GreedySolver
from repro.core.instance import build_instance
from repro.core.query import LCMSRQuery
from repro.core.tgen import TGENSolver
from repro.datasets.ny import build_ny_like
from repro.datasets.queries import generate_workload
from repro.engine import LCMSREngine
from repro.evaluation.reporting import format_table
from repro.network.builders import grid_network
from repro.service.bundle import IndexBundle

from benchmarks.conftest import FULL_SCALE, SMOKE_SCALE

SEED = 42
K = 5
MIN_SPEEDUP_LARGEST = 2.0
REPEATS = 1 if SMOKE_SCALE else 3

# (label, rows, cols, positive weights, delta): positive weight clusters on a
# few low-id nodes — the sparse-relevance regime where the suffix bound prunes
# whole anchor cones. The largest window (16 nodes, 3 relevant) is the config
# the ≥2x bar is asserted on.
if SMOKE_SCALE:
    EXACT_CONFIGS = [
        ("3x4", 3, 4, {0: 2.0, 1: 1.5, 4: 1.0}, 600.0),
    ]
else:
    EXACT_CONFIGS = [
        ("3x4", 3, 4, {0: 2.0, 1: 1.5, 4: 1.0}, 600.0),
        ("4x4-sparse2", 4, 4, {0: 2.0, 5: 1.25}, 800.0),
        ("4x4-sparse3", 4, 4, {0: 2.0, 1: 1.5, 4: 1.0}, 800.0),
    ]


def _assert_topk_identical(topk_a, topk_b, context):
    assert len(topk_a.results) == len(topk_b.results), context
    for result_a, result_b in zip(topk_a.results, topk_b.results):
        assert result_a.region.nodes == result_b.region.nodes, context
        assert result_a.region.edges == result_b.region.edges, context
        assert result_a.weight == result_b.weight, context
        assert result_a.length == result_b.length, context


def _time_topk(solver, instance, k: int) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        solver.solve_topk(instance, k=k)
        best = min(best, time.perf_counter() - start)
    return best


def test_bench_exact_topk_branch_and_bound_2x():
    rows_out: List[List[object]] = []
    records: List[Dict[str, object]] = []
    largest_speedup = 0.0
    solver = ExactSolver(max_nodes=16)
    for label, rows, cols, positives, delta in EXACT_CONFIGS:
        network = grid_network(rows, cols, spacing=100.0)
        query = LCMSRQuery.create(["kw"], delta=delta)
        instance = build_instance(network, query, node_weights=dict(positives))
        pruned_instance = instance.with_pruning(True)
        unpruned_instance = instance.with_pruning(False)

        # --- fidelity first (also warms both paths) ---
        pruned = solver.solve_topk(pruned_instance, k=K)
        unpruned = solver.solve_topk(unpruned_instance, k=K)
        _assert_topk_identical(pruned, unpruned, label)

        pruned_seconds = _time_topk(solver, pruned_instance, K)
        unpruned_seconds = _time_topk(solver, unpruned_instance, K)
        speedup = unpruned_seconds / pruned_seconds
        largest_speedup = speedup  # configs are ordered smallest → largest
        considered_pruned = pruned.stats.get("exact_subsets_considered", 0.0)
        considered_full = unpruned.stats.get("exact_subsets_considered", 0.0)
        rows_out.append([
            f"{label} ({rows * cols} nodes, Δ={delta:.0f})",
            unpruned_seconds,
            pruned_seconds,
            f"{speedup:.1f}x",
            f"{considered_pruned:.0f}/{considered_full:.0f}",
        ])
        records.append({
            "config": label,
            "nodes": rows * cols,
            "delta": delta,
            "k": K,
            "repeats": REPEATS,
            "unpruned_seconds": unpruned_seconds,
            "pruned_seconds": pruned_seconds,
            "speedup": speedup,
            "subsets_considered_pruned": considered_pruned,
            "subsets_considered_unpruned": considered_full,
            "branches_pruned": pruned.stats.get("exact_branches_pruned", 0.0),
            "anchors_skipped": pruned.stats.get("exact_anchors_skipped", 0.0),
        })

    print()
    print(format_table(
        ["configuration", "exhaustive (s)", "B&B (s)", "speedup", "considered"],
        rows_out,
        title=f"Exact solve_topk(k={K}): branch-and-bound vs exhaustive enumeration",
    ))

    json_path = os.environ.get("REPRO_BENCH_JSON")
    if json_path:
        payload = {
            "benchmark": "bench_pruning",
            "smoke": SMOKE_SCALE,
            "full": FULL_SCALE,
            "exact_topk": records,
        }
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {json_path}")

    if SMOKE_SCALE:
        # Smoke scale asserts identity (above) and records the numbers; the 2x
        # bar is a claim about the largest configuration.
        return
    assert largest_speedup >= MIN_SPEEDUP_LARGEST, (
        f"branch-and-bound solve_topk must be >= {MIN_SPEEDUP_LARGEST:.0f}x faster "
        f"than exhaustive enumeration on the largest configuration, got "
        f"{largest_speedup:.1f}x"
    )


def test_bench_heuristic_skip_counters():
    if SMOKE_SCALE:
        dataset = build_ny_like(rows=20, cols=20, block_size=120.0,
                                num_objects=1500, num_clusters=8, seed=SEED)
        delta, area = 900.0, 1.5
    else:
        dataset = build_ny_like(rows=32, cols=32, block_size=120.0,
                                num_objects=4000, num_clusters=18, seed=SEED)
        delta, area = 1400.0, 2.0
    bundle = IndexBundle.from_dataset(dataset)
    engine = LCMSREngine.from_bundle(bundle)
    queries = generate_workload(dataset, num_queries=2 if SMOKE_SCALE else 4,
                                num_keywords=3, delta=delta, area_km2=area, seed=9)
    queries = queries + [query.with_region(None) for query in queries[:1]]

    rows_out: List[List[object]] = []
    totals: Dict[str, float] = {}
    for solver in (GreedySolver(), TGENSolver()):
        pruned_seconds = 0.0
        unpruned_seconds = 0.0
        counters: Dict[str, float] = {}
        for query in queries:
            instance = engine.build_instance(query)
            start = time.perf_counter()
            pruned = solver.solve(instance.with_pruning(True))
            pruned_seconds += time.perf_counter() - start
            start = time.perf_counter()
            unpruned = solver.solve(instance.with_pruning(False))
            unpruned_seconds += time.perf_counter() - start
            assert pruned.region.nodes == unpruned.region.nodes, solver.name
            assert pruned.weight == unpruned.weight, solver.name
            assert pruned.length == unpruned.length, solver.name
            for key, value in pruned.stats.items():
                counters[key] = counters.get(key, 0.0) + value
        skip_keys = [key for key in sorted(counters)
                     if "skip" in key or "compact" in key or "scanned" in key]
        rows_out.append([
            solver.name,
            unpruned_seconds,
            pruned_seconds,
            "; ".join(f"{key}={counters[key]:.0f}" for key in skip_keys) or "-",
        ])
        for key in skip_keys:
            totals[f"{solver.name.lower()}_{key}"] = counters[key]

    print()
    print(format_table(
        ["solver", "unpruned (s)", "pruned (s)", "skip counters"],
        rows_out,
        title="heuristic solvers on an indexed NY-like workload: pruned vs unpruned",
    ))

    json_path = os.environ.get("REPRO_BENCH_JSON")
    if json_path:
        # Merge into the payload the exact-topk bench wrote (same file when both
        # run under one REPRO_BENCH_JSON, e.g. make bench-json).
        payload: Dict[str, object] = {}
        if os.path.exists(json_path):
            try:
                with open(json_path, "r", encoding="utf-8") as handle:
                    payload = json.load(handle)
            except (OSError, ValueError):
                payload = {}
        payload.setdefault("benchmark", "bench_pruning")
        payload["heuristic_counters"] = totals
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {json_path}")
