"""TGEN's compiled kernel: its build and cache, the Python fallback, and
concurrent use.

The answers themselves are checked in the parity suite, which runs every TGEN
case on the kernel and on the Python loop (the ``tgen_path`` fixture).
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.core import tgen, tgen_kernel
from repro.core.dense import DenseInstance
from repro.core.tgen import TGENSolver
from repro.datasets.queries import generate_workload
from repro.engine import LCMSREngine
from repro.service.bundle import IndexBundle

SRC = Path(tgen.__file__).resolve().parents[2]
ENV = {**os.environ, "PYTHONPATH": str(SRC)}

needs_kernel = pytest.mark.skipif(
    tgen._KERNEL is None, reason=f"TGEN's kernel is not built here: {tgen.KERNEL_FALLBACK}"
)


def _region(result):
    return (result.region.nodes, result.region.edges, result.weight, result.length,
            result.scaled_weight, result.stats)


@pytest.fixture(scope="module")
def instances(tiny_ny_dataset):
    """Two windows, one about ten times the work of the other."""
    engine = LCMSREngine.from_bundle(
        IndexBundle.build(tiny_ny_dataset.network, tiny_ny_dataset.corpus)
    )
    queries = generate_workload(
        tiny_ny_dataset, num_queries=2, num_keywords=3, delta=1500.0, area_km2=2.0, seed=11
    )
    return [engine.build_instance(query).with_pruning(False) for query in queries]


def _run(*args, timeout=120):
    return subprocess.run(
        [sys.executable, "-c", *args], capture_output=True, text=True, timeout=timeout,
        env=ENV,
    )


class TestFallback:
    @pytest.mark.parametrize(
        "compiler, reason",
        [("repro-no-such-compiler", "no compiler"), ("false", "compile error")],
        ids=["missing", "failing"],
    )
    def test_a_missing_or_failing_compiler_leaves_the_python_loop(
        self, tmp_path, monkeypatch, instances, compiler, reason
    ):
        kernel, fallback = tgen_kernel.load(tmp_path, compiler=compiler)
        assert kernel is None and fallback.startswith(reason)
        assert list(tmp_path.iterdir()) == []
        answers = [TGENSolver().solve(instance) for instance in instances]
        monkeypatch.setattr(tgen, "_KERNEL", kernel)
        monkeypatch.setattr(tgen, "KERNEL_FALLBACK", fallback)
        assert tgen.kernel_description() == f"python ({fallback})"
        for instance, answer in zip(instances, answers):
            assert _region(TGENSolver().solve(instance)) == _region(answer)

    def test_an_unwritable_cache_leaves_the_python_loop(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        kernel, fallback = tgen_kernel.load(blocker / "cache")
        assert kernel is None and fallback == "cache not writable"


@needs_kernel
class TestBuildAndCache:
    def test_a_cached_library_loads_without_the_compiler(self):
        done = _run(
            "import subprocess\n"
            "def refuse(*args, **kwargs):\n"
            "    raise AssertionError('the compiler was started')\n"
            "subprocess.Popen = refuse\n"
            "import repro\n"
            "from repro.core import tgen\n"
            "print(tgen.kernel_description())\n"
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == str(tgen._KERNEL.path)

    def test_two_processes_building_at_once_both_load_a_valid_library(self, tmp_path):
        cache, go = tmp_path / "cache", tmp_path / "go"
        script = (
            "import sys, time\n"
            "from pathlib import Path\n"
            "from repro.core import LCMSRQuery, build_instance, tgen, tgen_kernel\n"
            "from repro.network.builders import paper_example_network\n"
            "go = Path(sys.argv[2])\n"
            "while not go.exists():\n"
            "    time.sleep(0.001)\n"
            "kernel, fallback = tgen_kernel.load(Path(sys.argv[1]))\n"
            "assert kernel is not None, fallback\n"
            "tgen._KERNEL = kernel\n"
            "weights = {1: 0.2, 2: 0.3, 3: 0.4, 4: 0.2, 5: 0.2, 6: 0.4}\n"
            "instance = build_instance(paper_example_network(),\n"
            "    LCMSRQuery.create(['t'], delta=6.0), node_weights=weights)\n"
            "result = tgen.TGENSolver(alpha=0.15).solve(instance)\n"
            "print(kernel.path, sorted(result.region.nodes), result.scaled_weight)\n"
        )
        procs = [
            subprocess.Popen([sys.executable, "-c", script, str(cache), str(go)],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                             env=ENV)
            for _ in range(2)
        ]
        go.touch()
        outputs = [proc.communicate(timeout=180) for proc in procs]
        for proc, (out, err) in zip(procs, outputs):
            assert proc.returncode == 0, err
        (library,) = cache.iterdir()  # one library, no staging file left behind
        for out, _ in outputs:
            assert out.split() == [str(library), "[2,", "4,", "5,", "6]", "110"]


@needs_kernel
class TestKernelCalls:
    def test_threads_solving_different_instances_get_their_own_answers(self, instances):
        solver = TGENSolver()
        expected = [_region(solver.solve(instance)) for instance in instances]
        answers = [[] for _ in range(4)]

        def work(slot):
            for _ in range(6):
                answers[slot].append(_region(solver.solve(instances[slot % 2])))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(slot,)) for slot in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(previous)
        for slot in range(4):
            assert answers[slot] == [expected[slot % 2]] * 6

    def test_a_failed_allocation_raises_memory_error(self):
        # The address-space limit is set in a child process only: 4 MiB
        # above the interpreter's size after a small warm-up solve, room for
        # the wrapper's own allocations and far less than the arena of this
        # solve's 2.75 million generated tuples.
        done = _run(
            "import resource\n"
            "from repro.core import LCMSRQuery, build_instance\n"
            "from repro.core.tgen import TGENSolver\n"
            "from repro.network.builders import grid_network\n"
            "def instance(side):\n"
            "    network = grid_network(side, side, spacing=100.0)\n"
            "    weights = {node: 1.0 + node % 7 for node in network.node_ids()}\n"
            "    return build_instance(network, LCMSRQuery.create(['t'], delta=2500.0),\n"
            "        node_weights=weights, pruning=False)\n"
            "solver = TGENSolver(alpha=1.0)\n"
            "solver.solve(instance(3))\n"
            "heavy = instance(12)\n"
            "size = next(int(line.split()[1]) for line in open('/proc/self/status')\n"
            "    if line.startswith('VmSize:')) * 1024\n"
            "resource.setrlimit(resource.RLIMIT_AS, (size + (4 << 20), resource.RLIM_INFINITY))\n"
            "try:\n"
            "    solver.solve(heavy)\n"
            "except MemoryError as exc:\n"
            "    print(exc)\n"
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "the TGEN kernel ran out of memory"

    def test_an_exception_raised_by_the_budget_propagates(self, paper_instance, tgen_path):
        class FailingBudget:
            def expired(self):
                raise RuntimeError("the budget failed")

        with pytest.raises(RuntimeError, match="the budget failed"):
            TGENSolver(alpha=0.15).solve(paper_instance.with_budget(FailingBudget()))

    def test_arrays_that_are_not_a_csr_graph_are_refused(self, paper_instance):
        dense = paper_instance.dense
        broken = DenseInstance(
            dense.ids, dense.xs, dense.ys, dense.indptr,
            np.full_like(dense.indices, dense.num_nodes), dense.lengths, dense.sigma,
            dense.relevant_order,
        )
        seeds = np.arange(dense.num_nodes)
        scaled = np.zeros(dense.num_nodes, dtype=np.int64)
        with pytest.raises(ValueError):
            tgen._KERNEL.solve(broken, scaled, seeds, 6.0, None, False, False, 0, 64, None)

