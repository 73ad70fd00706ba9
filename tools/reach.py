"""Reachability audit: which functions of ``src/repro`` only tests reach.

    python tools/reach.py [--record-dir DIR] [--no-run]

Run it from the root of a source checkout (``make reach``). Every production
caller runs under a profiling probe, then the tier-1 suite does:

1. ``perfbench/run.py`` on each workload at ``--trace 0`` and ``--trace 1``
   (each fixture is first built once under the probe, so a cached fixture
   does not hide the build path);
2. ``make artifact-smoke compact-smoke anytime-smoke shard-smoke``;
3. every ``examples/*.py``, with the artifacts they saved on earlier runs
   removed first, so each takes its build path;
4. ``REPRO_BENCH_SMOKE=1 pytest benchmarks/ --benchmark-disable``;
5. tier-1 (``pytest``).

The probe is a ``sitecustomize.py`` placed on ``PYTHONPATH``, so every Python
process of a run loads it, spawned pool workers included. It installs
``sys.setprofile`` and ``threading.setprofile`` hooks, again after every fork,
and appends ``file:firstlineno:qualname`` the first time a process calls a
function, one file per pid, flushed per line because pool workers leave
through ``os._exit``. ``--benchmark-disable`` matters: pytest-benchmark calls
``sys.setprofile(None)`` around every timed call, which would hide the timed
code from the probe.

The report lists, per file, the functions (nested ones included) that only
tier-1 or nothing reaches, with their line spans. Each must match a pattern in
``tools/reach_keep.txt``, one ``path::qualname`` glob per line followed by
``|`` and the reason it stays; the script exits 1 when one does not. A
production run that fails exits 2, since its reach would be cut short; a
tier-1 failure is only reported. The probe cannot see a path its runs never
took, so grep ``src/`` for callers before deleting a function it lists.
"""

from __future__ import annotations

import argparse
import ast
import fnmatch
import os
import shutil
import subprocess
import sys
import tempfile
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
KEEP = Path(__file__).resolve().parent / "reach_keep.txt"

WORKLOADS = ("tgen-paper", "greedy-200k", "serve-rw", "gateway-greedy")
SMOKES = ("artifact-smoke", "compact-smoke", "anytime-smoke", "shard-smoke")
BENCH_SECONDS = "3"

PROBE = '''\
import os
import sys
import threading

_OUT = os.environ.get("REPRO_REACH_OUT")
_PACKAGE = os.environ.get("REPRO_REACH_PACKAGE", "")


def _install():
    seen = set()
    sink = open(os.path.join(_OUT, "%d.txt" % os.getpid()), "a", buffering=1)

    def probe(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code not in seen:
                seen.add(code)
                path = os.path.realpath(code.co_filename)
                if path.startswith(_PACKAGE):
                    sink.write("%s:%d:%s\\n" % (path, code.co_firstlineno,
                                                code.co_qualname))

    sys.setprofile(probe)
    threading.setprofile(probe)


if _OUT and _PACKAGE:
    _install()
    os.register_at_fork(after_in_child=_install)
'''


# Builds a workload's fixture under the probe even when it is cached: into the
# cache when missing, else into a directory that is removed afterwards.
FIXTURE_BUILD = """
import shutil, sys, tempfile
from pathlib import Path
sys.path.insert(0, "perfbench")
import fixtures
name = sys.argv[1]
if not fixtures.fixture_dir(name).exists():
    fixtures.ensure(name)
else:
    temporary = Path(tempfile.mkdtemp())
    try:
        fixtures.build(name, temporary / "fixture")
    finally:
        shutil.rmtree(temporary)
"""


@dataclass(frozen=True)
class Function:
    path: str
    qualname: str
    first: int
    last: int

    @property
    def key(self) -> str:
        return f"{self.path}::{self.qualname}"

    @property
    def lines(self) -> int:
        return self.last - self.first + 1


def source_functions():
    """Every ``def`` under ``src/repro``, keyed by (file, first line).

    The first line is the first decorator's, as in ``co_firstlineno``, and the
    qualified name follows ``co_qualname`` (``outer.<locals>.inner``).
    """
    functions = {}

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                functions[(path, first)] = Function(path, qualname, first, child.end_lineno)
                visit(child, qualname + ".<locals>.", path)
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", path)
            else:
                visit(child, prefix, path)

    for file in sorted(PACKAGE.rglob("*.py")):
        path = str(file.relative_to(ROOT))
        visit(ast.parse(file.read_text(encoding="utf-8")), "", path)
    return functions


def reached(record_dir: Path):
    """The (file, first line) pairs the probe records under ``record_dir``."""
    keys = set()
    if not record_dir.is_dir():
        return keys
    for record in record_dir.glob("*.txt"):
        for line in record.read_text(encoding="utf-8").splitlines():
            path, first, _ = line.split(":", 2)
            keys.add((str(Path(path).relative_to(ROOT)), int(first)))
    return keys


def read_keep():
    patterns = []
    for number, line in enumerate(KEEP.read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        pattern, sep, reason = line.partition("|")
        if not sep or not reason.strip():
            raise SystemExit(f"{KEEP.name}:{number}: expected 'path::qualname | reason'")
        patterns.append(pattern.strip())
    return patterns


def run(label: str, cmd, env, failures, logs: Path) -> None:
    """Run ``cmd`` under the probe, its output to ``logs/<label>.log``."""
    print(f"reach: {label}", flush=True)
    log = logs / (label.replace("/", "_").replace(" ", "_") + ".log")
    with open(log, "w", encoding="utf-8") as out:
        code = subprocess.call(cmd, cwd=ROOT, env=env, stdout=out, stderr=subprocess.STDOUT)
    if code != 0:
        failures.append(f"{label} (exit {code}, see {log})")


def record(record_dir: Path) -> int:
    probe_dir = Path(tempfile.mkdtemp(prefix="repro-reach-"))
    try:
        (probe_dir / "sitecustomize.py").write_text(PROBE, encoding="utf-8")
        pythonpath = f"{probe_dir}{os.pathsep}{SRC}"
        production = record_dir / "production"
        tier1 = record_dir / "tier1"
        logs = record_dir / "logs"
        for directory in (production, tier1, logs):
            shutil.rmtree(directory, ignore_errors=True)
            directory.mkdir(parents=True)
        env = dict(os.environ, PYTHONPATH=pythonpath, REPRO_REACH_PACKAGE=str(PACKAGE),
                   REPRO_REACH_OUT=str(production))
        python = sys.executable
        failures = []
        build = FIXTURE_BUILD
        for workload in WORKLOADS:
            run(f"fixture {workload}", [python, "-c", build, workload], env, failures, logs)
            for trace in ("0", "1"):
                run(f"perfbench {workload} --trace {trace}",
                    [python, "perfbench/run.py", "--workload", workload, "--seed", "7",
                     "--seconds", BENCH_SECONDS, "--trace", trace], env, failures, logs)
        for smoke in SMOKES:
            run(f"make {smoke}", ["make", smoke, f"PYTHONPATH={pythonpath}",
                                  f"PYTHON={python}"], env, failures, logs)
        # An example reuses the artifact an earlier run saved under
        # examples/artifacts/, which would hide its build path from the probe;
        # without it, each example builds and saves it again.
        shutil.rmtree(ROOT / "examples" / "artifacts", ignore_errors=True)
        for example in sorted((ROOT / "examples").glob("*.py")):
            run(f"examples/{example.name}", [python, str(example)], env, failures, logs)
        run("benchmarks (smoke)",
            [python, "-m", "pytest", "benchmarks/", "-q", "-o", "python_files=bench_*.py",
             "--benchmark-disable", "-p", "no:cacheprovider"],
            dict(env, REPRO_BENCH_SMOKE="1"), failures, logs)
        if failures:
            for failure in failures:
                print(f"reach: production run failed: {failure}", file=sys.stderr)
            return 2
        tier1_failures = []
        run("tier-1", [python, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
            dict(env, REPRO_REACH_OUT=str(tier1)), tier1_failures, logs)
        for failure in tier1_failures:
            print(f"reach: warning: {failure} under the probe; its reach is still "
                  "recorded", file=sys.stderr)
        return 0
    finally:
        shutil.rmtree(probe_dir, ignore_errors=True)


def report(record_dir: Path) -> int:
    functions = source_functions()
    production = reached(record_dir / "production")
    tier1 = reached(record_dir / "tier1") - production
    patterns = read_keep()
    used = set()
    unkept = 0
    by_file = defaultdict(list)
    counts = {"tier-1": [0, 0], "nothing": [0, 0]}
    for key, function in sorted(functions.items()):
        if key in production:
            continue
        kind = "tier-1" if key in tier1 else "nothing"
        counts[kind][0] += 1
        counts[kind][1] += function.lines
        match = next((p for p in patterns if fnmatch.fnmatchcase(function.key, p)), None)
        if match is None:
            unkept += 1
        else:
            used.add(match)
        by_file[function.path].append((function, kind, match is not None))
    for path, rows in by_file.items():
        print(path)
        for function, kind, kept in rows:
            mark = "keep" if kept else "NEW "
            print(f"  {mark} {function.first:>5}-{function.last:<5} {kind:<8} "
                  f"{function.qualname}")
    print()
    reached_count = len(functions) - counts["tier-1"][0] - counts["nothing"][0]
    print(f"functions: {len(functions)}; reached by a production run: {reached_count}; "
          f"only by tier-1: {counts['tier-1'][0]} ({counts['tier-1'][1]} lines); "
          f"by nothing: {counts['nothing'][0]} ({counts['nothing'][1]} lines)")
    for pattern in patterns:
        if pattern not in used:
            print(f"note: {KEEP.name} pattern matches nothing test-only: {pattern}")
    if unkept:
        print(f"{unkept} function(s) reached only by tier-1 or by nothing are not in "
              f"{KEEP.relative_to(ROOT)}: delete them or add a keep line with a reason")
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record-dir", type=Path,
                        help="keep the probe records here (default: a temporary directory)")
    parser.add_argument("--no-run", action="store_true",
                        help="report on the records already in --record-dir")
    args = parser.parse_args(argv)
    if args.no_run and args.record_dir is None:
        parser.error("--no-run needs --record-dir")
    record_dir = args.record_dir or Path(tempfile.mkdtemp(prefix="repro-reach-records-"))
    try:
        if not args.no_run:
            code = record(record_dir.resolve())
            if code:
                return code
        return report(record_dir.resolve())
    finally:
        if args.record_dir is None:
            shutil.rmtree(record_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
