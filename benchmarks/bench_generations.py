"""Mutable-world serving: overlay query overhead and compaction latency.

Not a paper figure — this benchmarks the generations subsystem
(:mod:`repro.service.generations`). Two claims:

1. **Overlay-serving overhead is bounded** — merging a pending
   :class:`~repro.service.generations.DeltaOverlay` into the node weights at
   query time costs a small constant factor over frozen-world serving (the
   base stays columnar; only the overlay entries are scored scalar-path), not
   a rebuild-per-query.
2. **Compaction is an offline cost** — re-freezing base + delta through
   ``IndexBundle.build`` (plus artifact persistence and the ``CURRENT`` flip)
   takes index-build time, after which serving returns to frozen-world speed
   byte-identically to a cold rebuild of the mutated corpus.

Set ``REPRO_BENCH_JSON=<path>`` (the ``make bench-json`` target does) to
record the measured numbers as JSON.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_generations.py -q -s
"""

from __future__ import annotations

import json
import os
import random
import time
from typing import Dict, List

from repro.datasets.ny import build_ny_like
from repro.datasets.queries import generate_workload
from repro.engine import LCMSREngine
from repro.evaluation.reporting import format_table
from repro.service.bundle import IndexBundle
from repro.service.generations import (
    Compactor,
    DeltaOverlay,
    append_delta_ops,
    apply_ops,
    resolve_generation,
)

from benchmarks.conftest import FULL_SCALE, SMOKE_SCALE

SEED = 42
MUTATIONS = 12 if SMOKE_SCALE else 60


def _dataset():
    if FULL_SCALE:
        return build_ny_like(rows=48, cols=48, block_size=120.0, num_objects=9000,
                             num_clusters=40, seed=SEED)
    if SMOKE_SCALE:
        return build_ny_like(rows=16, cols=16, block_size=120.0, num_objects=900,
                             num_clusters=8, seed=SEED)
    return build_ny_like(rows=32, cols=32, block_size=120.0, num_objects=4000,
                         num_clusters=18, seed=SEED)


def _mutation_script(dataset, rng, count):
    """``count`` mixed mutations: ratings, removals, brand-new objects."""
    vocab = [term for term, _ in dataset.corpus.most_frequent_terms(10)]
    min_x, min_y, max_x, max_y = dataset.network.bounding_box()
    touched = rng.sample(sorted(dataset.corpus.object_ids()), count)
    ops = []
    for index, object_id in enumerate(touched):
        kind = index % 3
        if kind == 0:
            ops.append({"op": "rate", "id": object_id,
                        "rating": round(rng.uniform(0.5, 5.0), 2)})
        elif kind == 1:
            ops.append({"op": "remove", "id": object_id})
        else:
            ops.append({"op": "add", "id": 95000 + index,
                        "x": rng.uniform(min_x, max_x),
                        "y": rng.uniform(min_y, max_y),
                        "keywords": rng.sample(vocab, 2),
                        "rating": round(rng.uniform(0.5, 5.0), 2)})
    return ops


def _run_workload(engine, queries) -> float:
    solver = engine.solver("tgen")
    start = time.perf_counter()
    for query in queries:
        solver.solve(engine.build_instance(query))
    return time.perf_counter() - start


def test_bench_overlay_overhead_and_compaction(tmp_path):
    dataset = _dataset()
    rng = random.Random(SEED)
    queries = generate_workload(dataset, num_queries=4 if SMOKE_SCALE else 8,
                                num_keywords=3, delta=900.0, area_km2=1.5,
                                seed=9)
    bundle = IndexBundle.from_dataset(dataset)
    engine = LCMSREngine.from_bundle(bundle)
    repeats = 2 if SMOKE_SCALE else 3

    base_seconds = min(_run_workload(engine, queries) for _ in range(repeats))

    ops = _mutation_script(dataset, rng, MUTATIONS)
    overlay = DeltaOverlay(bundle)
    apply_ops(overlay, ops)
    engine.attach_overlay(overlay)
    overlay_seconds = min(_run_workload(engine, queries) for _ in range(repeats))

    # In-memory compaction (what a live engine pays before the swap)...
    report_memory = Compactor(engine).compact()
    post_seconds = min(_run_workload(engine, queries) for _ in range(repeats))

    # ...and the full on-disk protocol: artifact + delta log -> gen-0001.
    root = tmp_path / "artifact"
    bundle.save(root)
    append_delta_ops(root, ops)
    disk_engine = LCMSREngine.from_artifact(root)
    report_disk = Compactor(disk_engine, root=root).compact()
    assert resolve_generation(root) == root / report_disk.generation

    # Post-compaction serving must be byte-identical to a cold rebuild of the
    # mutated corpus (the tier-1 parity suite proves this exhaustively; the
    # bench keeps one end-to-end assertion so the numbers can't drift from a
    # broken world).
    cold = LCMSREngine.from_bundle(IndexBundle.build(
        dataset.network, overlay.materialize_corpus(),
        scoring_mode=bundle.scoring_mode))
    for query in queries:
        hot = engine.solver("tgen").solve(engine.build_instance(query))
        ref = cold.solver("tgen").solve(cold.build_instance(query))
        assert hot.region.nodes == ref.region.nodes
        assert hot.weight == ref.weight and hot.length == ref.length

    overhead = overlay_seconds / base_seconds if base_seconds > 0 else 1.0
    rows: List[List[object]] = [
        ["frozen base", f"{base_seconds * 1000:.1f}", "-"],
        [f"overlay ({MUTATIONS} pending)", f"{overlay_seconds * 1000:.1f}",
         f"{overhead:.2f}x"],
        ["post-compaction", f"{post_seconds * 1000:.1f}",
         f"{post_seconds / base_seconds:.2f}x" if base_seconds > 0 else "-"],
    ]
    print()
    print(format_table(
        ["serving mode", "workload (ms)", "vs frozen"],
        rows,
        title=f"TGEN workload ({len(queries)} queries) across the mutation lifecycle",
    ))
    print(f"compaction: in-memory {report_memory.seconds:.2f}s, "
          f"on-disk (persist + reshard + CURRENT flip) {report_disk.seconds:.2f}s")

    json_path = os.environ.get("REPRO_BENCH_JSON")
    if json_path:
        payload: Dict[str, object] = {
            "benchmark": "bench_generations",
            "smoke": SMOKE_SCALE,
            "full": FULL_SCALE,
            "mutations": MUTATIONS,
            "queries": len(queries),
            "workload_seconds": {
                "frozen_base": base_seconds,
                "overlay": overlay_seconds,
                "post_compaction": post_seconds,
            },
            "overlay_overhead_ratio": overhead,
            "compaction_seconds": {
                "in_memory": report_memory.seconds,
                "on_disk": report_disk.seconds,
            },
        }
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {json_path}")

    # The overlay path may be slower but must stay within a small constant
    # factor of frozen serving — it merges deltas, it does not rebuild.
    assert overhead < 25.0, (
        f"overlay serving cost {overhead:.1f}x the frozen path; expected a "
        f"bounded merge overhead"
    )
