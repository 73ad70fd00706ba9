"""Artifact load vs full rebuild: engine-ready time and answer fidelity.

Not a paper figure — this benchmarks the persistence layer
(:mod:`repro.service.persist`). The claim: loading a prebuilt index artifact
(``IndexBundle.load`` / ``LCMSREngine.from_artifact``) makes an engine
query-ready **at least 10x faster** than the status-quo cold start, which pays
dataset assembly plus the full offline indexing pipeline (object → node mapping,
columnar scoring index, CSR freeze) on every process start.

Three checks:

1. **Engine-ready time** — cold rebuild vs artifact load across three dataset
   scales; the ≥10x assertion applies to the largest configuration of the run
   (the gap *grows* with scale: rebuild is super-linear in dataset size while
   loading stays I/O-bound).
2. **Fidelity** — the loaded engine answers a query workload identically to the
   freshly built engine for every solver.
3. **Artifact cache round trip** — ``ExperimentRunner(..., artifact_cache_dir=...)``
   publishes one content-fingerprinted artifact per dataset and serves the second
   construction from disk (result-identically); the artifact is what later
   processes load without any dataset build.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_persist.py -q -s
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import List, Tuple

from repro.datasets.ny import build_ny_like
from repro.datasets.queries import generate_workload
from repro.engine import LCMSREngine
from repro.evaluation.reporting import format_table
from repro.evaluation.runner import ExperimentRunner
from repro.service.bundle import IndexBundle

from benchmarks.conftest import FULL_SCALE, SMOKE_SCALE

# (label, rows, cols, objects, clusters): the status-quo cold start scales
# super-linearly in these, the artifact load linearly — the largest config is
# where the ≥10x claim is asserted.
if FULL_SCALE:
    CONFIGS = [
        ("small", 24, 24, 1800, 10),
        ("medium", 48, 48, 8000, 30),
        ("large", 80, 80, 24000, 70),
    ]
elif SMOKE_SCALE:
    CONFIGS = [("small", 20, 20, 1200, 8)]
else:
    CONFIGS = [
        ("small", 24, 24, 1800, 10),
        ("large", 64, 64, 16000, 55),
    ]

SEED = 42
MIN_SPEEDUP_LARGEST = 10.0


def _cold_start(rows: int, cols: int, objects: int, clusters: int) -> Tuple[LCMSREngine, float]:
    """The status-quo path: generate the dataset and index it from raw data."""
    start = time.perf_counter()
    dataset = build_ny_like(rows=rows, cols=cols, block_size=120.0,
                            num_objects=objects, num_clusters=clusters, seed=SEED)
    engine = LCMSREngine(dataset.network, dataset.corpus)
    return engine, time.perf_counter() - start


def _artifact_load(path: Path) -> Tuple[LCMSREngine, float]:
    start = time.perf_counter()
    engine = LCMSREngine.from_artifact(path)
    return engine, time.perf_counter() - start


def test_bench_engine_ready_time_10x(tmp_path):
    rows_out: List[List[object]] = []
    speedups: List[Tuple[str, float]] = []
    for label, rows, cols, objects, clusters in CONFIGS:
        built_engine, rebuild_seconds = _cold_start(rows, cols, objects, clusters)
        artifact_dir = tmp_path / f"ny-{label}"
        built_engine.bundle.save(artifact_dir)

        # Best of two loads: the first pays cold OS page-cache misses the
        # rebuild side never sees (its inputs are generated in memory).
        load_seconds = min(_artifact_load(artifact_dir)[1] for _ in range(2))
        loaded_engine = _artifact_load(artifact_dir)[0]

        # Fidelity: identical answers on windowed queries, every heuristic solver
        # (the full-solver round trip, including exact and top-k, is asserted in
        # tests/service/test_persist.py; windows keep this check cheap at scale).
        workload = generate_workload_from_engine(built_engine, delta=8.0 * 120.0)
        for algorithm in ("greedy", "tgen", "app"):
            for keywords, delta, region in workload:
                a = built_engine.query(keywords, delta, region=region, algorithm=algorithm)
                b = loaded_engine.query(keywords, delta, region=region, algorithm=algorithm)
                assert a.region.nodes == b.region.nodes, (label, algorithm, keywords)
                assert abs(a.weight - b.weight) < 1e-9
                assert abs(a.length - b.length) < 1e-9

        speedup = rebuild_seconds / load_seconds
        speedups.append((label, speedup))
        rows_out.append([
            f"{label} ({rows}x{cols}, {objects} obj)",
            rebuild_seconds,
            load_seconds,
            f"{speedup:.1f}x",
        ])

    print()
    print(format_table(
        ["configuration", "cold rebuild (s)", "artifact load (s)", "speedup"],
        rows_out,
        title="engine-ready time: full rebuild vs mmap artifact load",
    ))

    largest_label, largest_speedup = speedups[-1]
    if SMOKE_SCALE:
        # Smoke scale only sanity-checks the direction; the 10x bar is a
        # large-configuration claim (fixed costs dominate tiny datasets).
        assert largest_speedup > 1.0, (
            f"artifact load must beat rebuild even at smoke scale, "
            f"got {largest_speedup:.1f}x"
        )
    else:
        assert largest_speedup >= MIN_SPEEDUP_LARGEST, (
            f"artifact load must be >= {MIN_SPEEDUP_LARGEST:.0f}x faster than the "
            f"cold rebuild on the largest configuration ({largest_label}), "
            f"got {largest_speedup:.1f}x"
        )


def generate_workload_from_engine(
    engine: LCMSREngine, delta: float, count: int = 4
) -> List[Tuple[List[str], float, object]]:
    """A small deterministic windowed keyword workload from the engine's corpus."""
    from repro.network.subgraph import Rectangle

    frequent = [term for term, _ in engine.corpus.most_frequent_terms(8)]
    min_x, min_y, max_x, max_y = engine.graph_view.bounding_box()
    span_x, span_y = (max_x - min_x), (max_y - min_y)
    workload = []
    for index in range(count):
        keywords = [frequent[index % len(frequent)],
                    frequent[(index + 1) % len(frequent)]]
        fx = (index * 0.29) % 0.6
        fy = (index * 0.41) % 0.6
        window = Rectangle(
            min_x + fx * span_x,
            min_y + fy * span_y,
            min_x + (fx + 0.35) * span_x,
            min_y + (fy + 0.35) * span_y,
        )
        workload.append((keywords, delta, window))
    return workload


def test_bench_runner_artifact_cache(tmp_path):
    """Second ExperimentRunner construction over the same dataset hits the cache."""
    label, rows, cols, objects, clusters = CONFIGS[0]
    dataset = build_ny_like(rows=rows, cols=cols, block_size=120.0,
                            num_objects=objects, num_clusters=clusters, seed=SEED)
    cache = tmp_path / "runner-cache"

    start = time.perf_counter()
    first = ExperimentRunner(dataset, artifact_cache_dir=cache)
    miss_seconds = time.perf_counter() - start

    start = time.perf_counter()
    second = ExperimentRunner(dataset, artifact_cache_dir=cache)
    hit_seconds = time.perf_counter() - start

    queries = generate_workload(dataset, num_queries=2, num_keywords=2,
                                delta=1500.0, area_km2=2.0, seed=9)
    from repro.core.greedy import GreedySolver

    for query in queries:
        a = first.run_single(query, GreedySolver()).result
        b = second.run_single(query, GreedySolver()).result
        assert a.region.nodes == b.region.nodes
        assert abs(a.weight - b.weight) < 1e-9

    print()
    print(format_table(
        ["construction", "seconds"],
        [["first (build + save)", miss_seconds], ["second (artifact hit)", hit_seconds]],
        title=f"ExperimentRunner artifact cache, {label} config",
    ))
    assert second.bundle.network is None, "cache hit must come from disk"
