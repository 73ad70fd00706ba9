"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout. The workloads and the names and
units of the metrics come from ``BENCHMARK.json`` there. The runner builds any
missing fixture (cached under ``.perfbench_cache/``), runs the workload in a
fresh subprocess (``serve.py``), prints the answer digest and, as the last
line of standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer ones with ``--trace 1``. Times are scaled to a reference host speed
(``harness.HostClock``). A traced run also writes its spans to
``.perfbench_out/spans-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

SERVE_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def run_child(cmd, timeout: float) -> int:
    """Run ``cmd`` to completion; on timeout kill its whole process group."""
    with subprocess.Popen(cmd, cwd=ROOT, start_new_session=True) as proc:
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return -signal.SIGKILL


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="LCMSR serving benchmark")
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return fail(f"no package sources under {ROOT / 'src' / 'repro'}")
    sys.path.insert(0, str(HERE))
    import fixtures

    # Every missing fixture is built now, so only a checkout's first run pays.
    for name in workloads:
        if fixtures.fixture_dir(name).is_dir():
            continue
        start = time.perf_counter()
        code = run_child([sys.executable, str(HERE / "fixtures.py"), name], BUILD_TIMEOUT_S)
        if code != 0:
            return fail(f"building the {name} fixture failed (exit {code})")
        print(f"fixture {name}: built in {time.perf_counter() - start:.1f} s", file=sys.stderr)
    fixture = fixtures.fixture_dir(args.workload)
    build_s = json.loads((fixture / "fixture.json").read_text(encoding="utf-8"))["build_s"]
    print(f"fixture {fixture.name}: build {build_s:.1f} s, not part of setup_s",
          file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    out = OUT / f"result-{args.workload}-{args.seed}-{args.trace}.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "serve.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--fixture", str(fixture), "--out", str(out)]
    if args.trace:
        cmd += ["--spans", str(OUT / f"spans-{args.workload}-{args.seed}.json")]
    code = run_child(cmd, SERVE_TIMEOUT_S)
    if code != 0 or not out.is_file():
        return fail(f"the {args.workload} run failed (exit {code})")
    result = json.loads(out.read_text(encoding="utf-8"))

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = result["layers"] if args.trace else result["metrics"]
    # serve.py leaves out the layers a workload does not reach; they read 0.
    # End-to-end metrics are never 0.
    values = {m["name"]: source.get(m["name"], 0.0 if args.trace else math.nan)
              for m in wanted}
    bad = [name for name, value in values.items()
           if not math.isfinite(value) or (not args.trace and value <= 0)]
    if bad:
        return fail(f"unmeasured metrics: {', '.join(bad)}")
    print(f"diag {json.dumps(result['diag'])}", file=sys.stderr)
    print(f"answers {args.workload} seed={args.seed} digest={result['digest']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
