"""Continental-scale artifacts: streaming-build memory, compression, cold load.

Not a paper figure — this benchmarks the chunk-compressed artifact pipeline
(:mod:`repro.service.persist` + :mod:`repro.service.chunked`) on the growth
trajectory toward the paper's real datasets (NY: 0.5 M objects, USANW: 1.2 M
nodes). It records the peak RSS of a streaming build
(``IndexBundle.build_streaming`` over the object generator) beside the eager
baseline (``build_ny_like`` + ``IndexBundle.from_dataset``); both run the same
mapping / columnar / CSR pipeline, so neither is asserted below the other.
Two claims:

1. **Chunk compression pays for itself** — the compressed artifact is a
   multiple smaller on disk (≥ 3x at the largest config) while every query
   result stays byte-identical to the raw-memmap artifact.
2. **Cold starts stay cheap** — engine-ready time from a compressed artifact
   is within 1.5x of the raw-memmap load, because the hot offset/bound
   columns are stored raw and payload chunks decode lazily.

Each measured phase runs in its own subprocess so ``ru_maxrss`` isolates that
phase's true peak (the parent's allocations never pollute the numbers).

Scales: smoke 5 K objects, default 60 K, ``REPRO_BENCH_FULL=1`` 1 M objects on
a 250x250 street grid (minutes on one core; this is the committed
``BENCH_artifact.json`` row).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_artifact_scale.py -q -s
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

from repro.evaluation.reporting import format_table

from benchmarks.conftest import FULL_SCALE, SMOKE_SCALE

SEED = 42
CODEC, CODEC_LEVEL = "lzma", 6

if FULL_SCALE:
    CONFIG = {"rows": 250, "cols": 250, "objects": 1_000_000, "clusters": 200}
elif SMOKE_SCALE:
    CONFIG = {"rows": 20, "cols": 20, "objects": 5_000, "clusters": 10}
else:
    CONFIG = {"rows": 64, "cols": 64, "objects": 60_000, "clusters": 40}

ARTIFACT_FILES = ("network.npz", "scoring.npz", "index.pkl", "vocabulary.json")


# --------------------------------------------------------- subprocess children
def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_eager_build() -> None:
    """Eager baseline: the assembled dataset indexed in one go, no save."""
    from repro.datasets.ny import build_ny_like
    from repro.service.bundle import IndexBundle

    start = time.perf_counter()
    dataset = build_ny_like(seed=SEED, num_objects=CONFIG["objects"],
                            rows=CONFIG["rows"], cols=CONFIG["cols"],
                            num_clusters=CONFIG["clusters"])
    bundle = IndexBundle.from_dataset(dataset)
    seconds = time.perf_counter() - start
    print(json.dumps({
        "seconds": seconds, "peak_rss_mb": _peak_rss_mb(),
        "objects": len(bundle.corpus),
    }))


def child_stream_build(out_raw: str, out_compressed: str) -> None:
    """Streaming build; persists the same bundle raw and chunk-compressed."""
    from repro.datasets.ny import ny_like_parts
    from repro.service.bundle import IndexBundle

    start = time.perf_counter()
    network, objects = ny_like_parts(seed=SEED, num_objects=CONFIG["objects"],
                                     rows=CONFIG["rows"], cols=CONFIG["cols"],
                                     num_clusters=CONFIG["clusters"])
    bundle = IndexBundle.build_streaming(network, objects)
    build_seconds = time.perf_counter() - start
    # ru_maxrss is monotonic: sampling here isolates the *build* peak from the
    # save phase (the lzma encoder allocates ~100 MB of fixed buffers, which
    # would otherwise dominate the build peak at small scales).
    build_peak_rss_mb = _peak_rss_mb()
    start = time.perf_counter()
    bundle.save(out_raw)
    save_raw_seconds = time.perf_counter() - start
    start = time.perf_counter()
    bundle.save(out_compressed, compress=CODEC, compress_level=CODEC_LEVEL)
    save_compressed_seconds = time.perf_counter() - start
    print(json.dumps({
        "build_seconds": build_seconds,
        "save_raw_seconds": save_raw_seconds,
        "save_compressed_seconds": save_compressed_seconds,
        "peak_rss_mb": build_peak_rss_mb,
        "total_peak_rss_mb": _peak_rss_mb(),
    }))


def child_cold_query(artifact: str) -> None:
    """Cold start: artifact directory -> engine ready -> one answered query."""
    from repro.engine import LCMSREngine

    start = time.perf_counter()
    engine = LCMSREngine.from_artifact(artifact)
    ready_seconds = time.perf_counter() - start
    start = time.perf_counter()
    result = engine.query(["cafe", "restaurant"], delta=700.0, algorithm="tgen")
    query_seconds = time.perf_counter() - start
    print(json.dumps({
        "ready_seconds": ready_seconds,
        "query_seconds": query_seconds,
        "signature": {
            "nodes": sorted(result.region.nodes),
            "weight": result.weight,
            "length": result.length,
        },
    }))


_CHILDREN = {
    "eager": child_eager_build,
    "stream": child_stream_build,
    "cold": child_cold_query,
}


def _run_child(role: str, *args: str) -> Dict[str, object]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(["src", "."])
    script = (
        "from benchmarks.bench_artifact_scale import _CHILDREN; "
        f"import sys; _CHILDREN[{role!r}](*sys.argv[1:])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, env=env, check=False,
    )
    if proc.returncode != 0:
        raise AssertionError(
            f"benchmark child {role!r} failed:\n{proc.stdout}\n{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _artifact_bytes(path: Path) -> Dict[str, int]:
    sizes = {name: (path / name).stat().st_size for name in ARTIFACT_FILES}
    sizes["total"] = sum(sizes.values())
    return sizes


# ------------------------------------------------------------------ benchmark
def test_bench_artifact_scale(tmp_path):
    raw_dir = tmp_path / "raw"
    compressed_dir = tmp_path / "compressed"

    stream = _run_child("stream", str(raw_dir), str(compressed_dir))
    eager = _run_child("eager")
    cold_raw = _run_child("cold", str(raw_dir))
    cold_compressed = _run_child("cold", str(compressed_dir))

    # Byte-identical answers across raw and compressed artifacts.
    assert cold_raw["signature"] == cold_compressed["signature"]

    raw_bytes = _artifact_bytes(raw_dir)
    compressed_bytes = _artifact_bytes(compressed_dir)
    ratio = raw_bytes["total"] / compressed_bytes["total"]
    ready_ratio = (
        cold_compressed["ready_seconds"] / cold_raw["ready_seconds"]
        if cold_raw["ready_seconds"] > 0 else 1.0
    )

    rows: List[List[object]] = [
        ["eager build (baseline)", f"{eager['seconds']:.1f}",
         f"{eager['peak_rss_mb']:.0f}", "-"],
        ["streaming build", f"{stream['build_seconds']:.1f}",
         f"{stream['peak_rss_mb']:.0f}",
         f"{stream['peak_rss_mb'] / eager['peak_rss_mb']:.2f}x"],
    ]
    print()
    print(format_table(
        ["phase", "seconds", "peak RSS (MB)", "vs eager"],
        rows,
        title=f"build at {CONFIG['objects']:,} objects "
              f"({CONFIG['rows']}x{CONFIG['cols']} grid)",
    ))
    print(format_table(
        ["artifact", "bytes", "cold ready (s)", "cold query (s)"],
        [
            ["raw memmap", f"{raw_bytes['total']:,}",
             f"{cold_raw['ready_seconds']:.2f}",
             f"{cold_raw['query_seconds']:.2f}"],
            [f"{CODEC}-{CODEC_LEVEL} chunks", f"{compressed_bytes['total']:,}",
             f"{cold_compressed['ready_seconds']:.2f}",
             f"{cold_compressed['query_seconds']:.2f}"],
        ],
        title=f"on-disk size {ratio:.2f}x smaller, "
              f"cold engine-ready {ready_ratio:.2f}x the raw load",
    ))

    json_path = os.environ.get("REPRO_BENCH_JSON")
    if json_path:
        payload: Dict[str, object] = {
            "benchmark": "bench_artifact_scale",
            "smoke": SMOKE_SCALE,
            "full": FULL_SCALE,
            "config": dict(CONFIG),
            "codec": {"name": CODEC, "level": CODEC_LEVEL},
            "build": {
                "eager_seconds": eager["seconds"],
                "eager_peak_rss_mb": eager["peak_rss_mb"],
                "stream_seconds": stream["build_seconds"],
                "stream_peak_rss_mb": stream["peak_rss_mb"],
                "stream_total_peak_rss_mb": stream["total_peak_rss_mb"],
                "save_raw_seconds": stream["save_raw_seconds"],
                "save_compressed_seconds": stream["save_compressed_seconds"],
            },
            "artifact_bytes": {
                "raw": raw_bytes,
                "compressed": compressed_bytes,
                "ratio": ratio,
            },
            "cold_start_seconds": {
                "raw_ready": cold_raw["ready_seconds"],
                "compressed_ready": cold_compressed["ready_seconds"],
                "ready_ratio": ready_ratio,
                "raw_query": cold_raw["query_seconds"],
                "compressed_query": cold_compressed["query_seconds"],
            },
        }
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {json_path}")

    # Claim 2: the compressed cold start stays close to the raw-memmap load
    # (small epsilon so millisecond-scale smoke loads don't flake on noise).
    assert cold_compressed["ready_seconds"] <= \
        1.5 * cold_raw["ready_seconds"] + 0.25, (
            f"compressed cold start {cold_compressed['ready_seconds']:.2f}s vs "
            f"raw {cold_raw['ready_seconds']:.2f}s"
        )
    if not SMOKE_SCALE:
        # Claim 1: the compression floor (the acceptance bar is the FULL
        # config; the default config must not regress below it either).
        assert ratio >= 3.0, f"compression ratio {ratio:.2f}x fell below 3x"
