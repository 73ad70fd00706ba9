"""Instance-build throughput: columnar σ_v pipeline vs the object-loop reference.

Not a paper figure — this benchmarks the columnar scoring pipeline
(:mod:`repro.textindex.columnar`). The claim: building a problem instance
(window extraction + per-node weight aggregation) through the frozen columnar
index is **at least 3x faster** than through the object-loop
:class:`~repro.textindex.relevance.RelevanceScorer` on the largest
configuration, while producing byte-identical solver results.

Three checks:

1. **Instance-build throughput** — total ``build_instance`` time over a mixed
   windowed / window-less workload through the bundle's pipeline (what every
   query runs) and through the scorer reference; the ≥3x assertion compares
   the two on the largest configuration.
2. **Fidelity** — σ_v dicts bit-identical (values *and* iteration order) between
   the columnar pipeline and the object-loop reference, and every heuristic
   solver returns byte-identical regions/weights on top of both.
3. **Perf trajectory record** — set ``REPRO_BENCH_JSON=<path>`` (the
   ``make bench-json`` target does) to append the measured numbers as JSON, so
   the repo's performance history is recorded run over run.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_scoring.py -q -s
"""

from __future__ import annotations

import json
import os
import time
from typing import Callable, Dict, List

from repro.core.app import APPSolver
from repro.core.greedy import GreedySolver
from repro.core.instance import build_instance
from repro.core.tgen import TGENSolver
from repro.datasets.ny import build_ny_like
from repro.datasets.queries import generate_workload
from repro.evaluation.reporting import format_table
from repro.evaluation.runner import ExperimentRunner
from repro.service.bundle import IndexBundle
from repro.textindex.relevance import RelevanceScorer

from benchmarks.conftest import FULL_SCALE, SMOKE_SCALE

# (label, rows, cols, objects, clusters): the object loop pays Python-level work
# per mapped object, the columnar pipeline a few array kernels — the gap grows
# with corpus size, so the ≥3x bar is asserted on the largest config.
if FULL_SCALE:
    CONFIGS = [
        ("small", 24, 24, 2000, 10),
        ("medium", 48, 48, 9000, 30),
        ("large", 80, 80, 26000, 70),
    ]
elif SMOKE_SCALE:
    CONFIGS = [("small", 20, 20, 1500, 8)]
else:
    CONFIGS = [
        ("small", 24, 24, 2000, 10),
        ("large", 64, 64, 16000, 55),
    ]

SEED = 42
MIN_SPEEDUP_LARGEST = 3.0
REPEATS = 1 if SMOKE_SCALE else 3


def _build_workload(dataset, num_queries: int):
    """Mixed workload: windowed queries plus their window-less variants."""
    windowed = generate_workload(
        dataset,
        num_queries=num_queries,
        num_keywords=3,
        delta=1200.0,
        area_km2=2.0,
        seed=9,
    )
    return windowed + [query.with_region(None) for query in windowed[: num_queries // 2]]


def _time_builds(build: Callable, queries) -> float:
    """Best-of-REPEATS total instance-build time over the workload."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        for query in queries:
            build(query)
        best = min(best, time.perf_counter() - start)
    return best


def test_bench_instance_build_columnar_3x():
    rows_out: List[List[object]] = []
    records: List[Dict[str, object]] = []
    speedups: List[float] = []
    for label, rows, cols, objects, clusters in CONFIGS:
        dataset = build_ny_like(
            rows=rows, cols=cols, block_size=120.0,
            num_objects=objects, num_clusters=clusters, seed=SEED,
        )
        bundle = IndexBundle.from_dataset(dataset)
        columnar_build = ExperimentRunner.from_bundle(bundle).build
        scorer = RelevanceScorer(dataset.corpus, dataset.mapping)

        def scorer_build(query, graph=bundle.graph_view(), scorer=scorer):
            return build_instance(graph, query, scorer=scorer)

        num_queries = 2 if SMOKE_SCALE else 6
        queries = _build_workload(dataset, num_queries)

        # --- fidelity first (also warms both paths) ---
        solvers = [GreedySolver(), TGENSolver(), APPSolver()]
        for query in queries:
            fast = columnar_build(query)
            reference = scorer_build(query)
            assert list(fast.weights.items()) == list(reference.weights.items()), (
                "columnar σ_v must be bit-identical to the object-loop reference"
            )
            for solver in solvers:
                a = solver.solve(fast)
                b = solver.solve(reference)
                assert a.region.nodes == b.region.nodes, (label, solver.name, query)
                assert a.weight == b.weight and a.length == b.length, (
                    "solver results must be byte-identical across backends"
                )

        columnar_seconds = _time_builds(columnar_build, queries)
        scorer_seconds = _time_builds(scorer_build, queries)
        speedup = scorer_seconds / columnar_seconds
        speedups.append(speedup)
        rows_out.append([
            f"{label} ({rows}x{cols}, {objects} obj)",
            scorer_seconds,
            columnar_seconds,
            f"{speedup:.1f}x",
        ])
        records.append({
            "config": label,
            "rows": rows,
            "cols": cols,
            "objects": objects,
            "queries": len(queries),
            "repeats": REPEATS,
            "scorer_seconds": scorer_seconds,
            "columnar_seconds": columnar_seconds,
            "speedup_vs_scorer": speedup,
        })

    print()
    print(format_table(
        ["configuration", "scorer (s)", "columnar (s)", "speedup vs scorer"],
        rows_out,
        title="instance build (window + σ_v): object-loop reference vs columnar",
    ))

    json_path = os.environ.get("REPRO_BENCH_JSON")
    if json_path:
        payload = {
            "benchmark": "bench_scoring",
            "smoke": SMOKE_SCALE,
            "full": FULL_SCALE,
            "configs": records,
            "largest_speedup_vs_scorer": speedups[-1],
        }
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {json_path}")

    largest = speedups[-1]
    if SMOKE_SCALE:
        # Smoke scale sanity-checks the direction only; the 3x bar is a
        # large-configuration claim (fixed per-query costs dominate tiny runs).
        assert largest > 1.0, (
            f"columnar instance build must beat the object loop even at smoke "
            f"scale, got {largest:.1f}x"
        )
    else:
        assert largest >= MIN_SPEEDUP_LARGEST, (
            f"columnar instance build must be >= {MIN_SPEEDUP_LARGEST:.0f}x faster "
            f"than the object-loop reference on the largest configuration, "
            f"got {largest:.1f}x"
        )
