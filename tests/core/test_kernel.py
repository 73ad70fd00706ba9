"""The compiled kernel: its build and cache, the Python fallback, concurrent
use, its input checks and failures, and Greedy's tie rules.

The answers themselves are checked in the parity suite, which runs every TGEN
and Greedy case on the kernel and on the Python loops (the ``kernel_path``
fixture).
"""

from __future__ import annotations

import gc
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.core import LCMSRQuery, build_instance, kernel
from repro.core.dense import DenseInstance
from repro.core.greedy import GreedySolver
from repro.core.reference import twin
from repro.core.tgen import TGENSolver
from repro.datasets.queries import generate_workload
from repro.engine import LCMSREngine
from repro.network.compact import CompactNetwork
from repro.network.graph import RoadNetwork
from repro.service.bundle import IndexBundle

from tests.conftest import PollBudget

SRC = Path(kernel.__file__).resolve().parents[2]
ENV = {**os.environ, "PYTHONPATH": str(SRC)}

needs_kernel = pytest.mark.skipif(
    kernel.LIBRARY is None, reason=f"the kernel is not built here: {kernel.FALLBACK}"
)


def _region(result):
    return (result.region.nodes, result.region.edges, result.weight, result.length,
            result.scaled_weight, result.stats)


def _topk(result):
    return [_region(region) for region in result.results], result.stats


@pytest.fixture(scope="module")
def instances(tiny_ny_dataset):
    """Two windows, one about ten times the work of the other."""
    engine = LCMSREngine.from_bundle(
        IndexBundle.build(tiny_ny_dataset.network, tiny_ny_dataset.corpus)
    )
    queries = generate_workload(
        tiny_ny_dataset, num_queries=2, num_keywords=3, delta=1500.0, area_km2=2.0, seed=11
    )
    return [engine.build_instance(query) for query in queries]


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
    def test_a_missing_or_failing_compiler_leaves_the_python_loops(
        self, tmp_path, monkeypatch, instances, compiler, reason
    ):
        library, fallback = kernel.load(tmp_path, compiler=compiler)
        assert library is None and fallback.startswith(reason)
        assert list(tmp_path.iterdir()) == []
        solvers = [TGENSolver(), GreedySolver()]
        answers = [
            (_region(solver.solve(instance)), _topk(solver.solve_topk(instance, k=3)))
            for solver in solvers for instance in instances
        ]
        monkeypatch.setattr(kernel, "LIBRARY", library)
        monkeypatch.setattr(kernel, "FALLBACK", fallback)
        assert kernel.describe() == f"python ({fallback})"
        assert answers == [
            (_region(solver.solve(instance)), _topk(solver.solve_topk(instance, k=3)))
            for solver in solvers for instance in instances
        ]

    def test_an_unwritable_cache_leaves_the_python_loops(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        library, fallback = kernel.load(blocker / "cache")
        assert library is None and fallback == "cache not writable"


@needs_kernel
class TestBuildAndCache:
    def test_a_cached_library_loads_without_the_compiler(self):
        done = _run(
            "import subprocess\n"
            "def refuse(*args, **kwargs):\n"
            "    raise AssertionError('the compiler was started')\n"
            "subprocess.Popen = refuse\n"
            "import repro\n"
            "from repro.core import kernel\n"
            "print(kernel.describe())\n"
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == str(kernel.LIBRARY.path)

    def test_two_processes_building_at_once_both_load_a_valid_library(
        self, tmp_path, paper_instance
    ):
        cache, go = tmp_path / "cache", tmp_path / "go"
        script = (
            "import sys, time\n"
            "from pathlib import Path\n"
            "from repro.core import LCMSRQuery, build_instance, greedy, kernel, tgen\n"
            "from repro.network.builders import paper_example_network\n"
            "go = Path(sys.argv[2])\n"
            "while not go.exists():\n"
            "    time.sleep(0.001)\n"
            "library, fallback = kernel.load(Path(sys.argv[1]))\n"
            "assert library is not None, fallback\n"
            "kernel.LIBRARY = library\n"
            "weights = {1: 0.2, 2: 0.3, 3: 0.4, 4: 0.2, 5: 0.2, 6: 0.4}\n"
            "instance = build_instance(paper_example_network(),\n"
            "    LCMSRQuery.create(['t'], delta=6.0), node_weights=weights)\n"
            "result = tgen.TGENSolver(alpha=0.15).solve(instance)\n"
            "grown = greedy.GreedySolver().solve(instance)\n"
            "print(library.path, sorted(result.region.nodes), result.scaled_weight,\n"
            "      sorted(grown.region.nodes))\n"
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
        grown = sorted(GreedySolver().solve(paper_instance).region.nodes)
        for out, _ in outputs:
            assert out.split() == [
                str(library), "[2,", "4,", "5,", "6]", "110", *str(grown).split()
            ]


def _solve_all(solver, instances):
    """Every instance's answer: TGEN's region, or Greedy's top three."""
    if isinstance(solver, GreedySolver):
        return [_topk(solver.solve_topk(instance, k=3)) for instance in instances]
    return [_region(solver.solve(instance)) for instance in instances]


@needs_kernel
class TestKernelCalls:
    @pytest.mark.parametrize(
        "solver, repeats", [(TGENSolver(), 6), (GreedySolver(), 60)], ids=["tgen", "greedy"]
    )
    def test_threads_solving_different_instances_get_their_own_answers(
        self, instances, solver, repeats
    ):
        expected = _solve_all(solver, instances)
        answers = [[] for _ in range(4)]

        def work(slot):
            for _ in range(repeats):
                answers[slot].append(_solve_all(solver, [instances[slot % 2]])[0])

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
            assert answers[slot] == [expected[slot % 2]] * repeats

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
            "        node_weights=weights)\n"
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

    def test_a_failed_greedy_allocation_raises_memory_error(self):
        # As above: 4 MiB of room. Two positions are joined by 2 Mi parallel
        # CSR slots each way, so growing the seed appends 2 Mi entries, 64
        # MiB, to the candidate table.
        done = _run(
            "import resource\n"
            "import numpy as np\n"
            "from repro.core import LCMSRQuery\n"
            "from repro.core.dense import DenseInstance\n"
            "from repro.core.greedy import GreedySolver\n"
            "def instance(slots):\n"
            "    dense = DenseInstance(np.array([1, 2]), np.zeros(2), np.zeros(2),\n"
            "        np.array([0, slots, 2 * slots]),\n"
            "        np.repeat(np.array([1, 0], dtype=np.int32), slots),\n"
            "        np.ones(2 * slots), np.array([1.0, 0.5]), np.array([0, 1]))\n"
            "    return dense.to_problem_instance(LCMSRQuery.create(['t'], delta=10.0))\n"
            "solver = GreedySolver()\n"
            "solver.solve(instance(4))\n"
            "heavy = instance(1 << 21)\n"
            "size = next(int(line.split()[1]) for line in open('/proc/self/status')\n"
            "    if line.startswith('VmSize:')) * 1024\n"
            "resource.setrlimit(resource.RLIMIT_AS, (size + (4 << 20), resource.RLIM_INFINITY))\n"
            "try:\n"
            "    solver.solve(heavy)\n"
            "except MemoryError as exc:\n"
            "    print(exc)\n"
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "the Greedy kernel ran out of memory"

    @pytest.mark.parametrize(
        "solver", [TGENSolver(alpha=0.15), GreedySolver()], ids=["tgen", "greedy"]
    )
    def test_an_exception_raised_by_the_budget_propagates(
        self, paper_instance, solver, kernel_path
    ):
        class FailingBudget:
            def expired(self):
                raise RuntimeError("the budget failed")

        with pytest.raises(RuntimeError, match="the budget failed"):
            solver.solve(paper_instance.with_budget(FailingBudget()))

    def test_a_poll_budget_stops_greedy_after_the_same_round(
        self, instances, monkeypatch
    ):
        solver = GreedySolver()
        truncated = 0
        for instance in instances:
            for polls in (0, 1, 3, 8, 1000):
                kernel_answer = solver.solve(instance.with_budget(PollBudget(polls)))
                with monkeypatch.context() as patch:
                    patch.setattr(kernel, "LIBRARY", None)
                    loop_answer = solver.solve(instance.with_budget(PollBudget(polls)))
                reference = twin(solver).solve(instance.with_budget(PollBudget(polls)))
                assert _region(kernel_answer) == _region(loop_answer), polls
                assert _region(kernel_answer)[:4] == _region(reference)[:4], polls
                truncated += kernel_answer.stats.get("budget_expired", 0.0) > 0.0
        assert 0 < truncated < 10, "some runs must be cut short, and some not"

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
            kernel.LIBRARY.tgen_solve(
                broken, scaled, seeds, 6.0, None, False, 0, 64, None
            )
        with pytest.raises(ValueError):
            kernel.LIBRARY.greedy_grow(
                broken, 0.2, 6.0, bytearray(dense.num_nodes), None
            )
        rows = np.array(dense.indptr)
        rows[1] = rows[2] + 1  # row pointers that go back
        unordered = DenseInstance(
            dense.ids, dense.xs, dense.ys, rows, dense.indices, dense.lengths,
            dense.sigma, dense.relevant_order,
        )
        with pytest.raises(ValueError):
            kernel.LIBRARY.greedy_grow(
                unordered, 0.2, 6.0, bytearray(dense.num_nodes), None
            )

    def test_kernel_solves_build_no_list_mirror(self, tiny_ny_dataset, monkeypatch):
        # Every instance is built afresh, so no earlier solve left a mirror
        # on it, and the window views keep the answers from the shared
        # network's mirrors.
        engine = LCMSREngine.from_bundle(
            IndexBundle.build(tiny_ny_dataset.network, tiny_ny_dataset.corpus)
        )
        queries = generate_workload(
            tiny_ny_dataset, num_queries=3, num_keywords=3, delta=1500.0, area_km2=2.0,
            seed=11,
        )

        def answers():
            found = []
            for query in queries:
                instance = engine.build_instance(query)
                for solver in (GreedySolver(), TGENSolver()):
                    found.append((
                        _region(solver.solve(instance)),
                        _topk(solver.solve_topk(instance, k=3)),
                    ))
            return found

        with monkeypatch.context() as patch:
            patch.setattr(kernel, "LIBRARY", None)
            expected = answers()

        def refuse(*args, **kwargs):
            raise AssertionError("a kernel solve built a window-sized list")

        monkeypatch.setattr(CompactNetwork, "_materialize_lists", refuse)
        assert answers() == expected

    def test_forests_of_many_sizes_leave_nothing_behind(self):
        # On a path of 10 m edges with every node weighted, TGEN's region
        # grows by one node per 10 m of ∆, so each ∆ below returns a forest
        # of its own row count. Reading the forest must not leave a type per
        # row count behind, as np.ctypeslib.as_array does (about 5.6 KiB for
        # each, or 680 KiB for these 120 sizes).
        network = RoadNetwork()
        for node in range(160):
            network.add_node(node, 10.0 * node, 0.0)
            if node:
                network.add_edge(node - 1, node, 10.0)
        weights = {node: 1.0 + node % 5 for node in network.node_ids()}
        solver = TGENSolver()

        def region_sizes(deltas):
            sizes = set()
            for delta in deltas:
                instance = build_instance(
                    network, LCMSRQuery.create(["t"], delta=delta), node_weights=weights
                )
                sizes.add(solver.solve(instance).region.num_nodes)
            return sizes

        region_sizes([5.0, 15.0])
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            sizes = region_sizes([10.0 * m + 5.0 for m in range(120)])
            gc.collect()
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        assert sizes == set(range(1, 121))
        left = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
        assert left < 64 * 1024, f"{left / 1024:.1f} KiB left behind"

    @pytest.mark.parametrize("offset", [-1, 1])
    def test_an_exclusion_mask_of_the_wrong_length_is_refused(self, paper_instance, offset):
        dense = paper_instance.dense
        with pytest.raises(ValueError, match="exclusion mask"):
            kernel.LIBRARY.greedy_grow(
                dense, 0.2, 6.0, bytearray(dense.num_nodes + offset), None
            )


def _network(nodes, edges):
    network = RoadNetwork()
    for node in nodes:
        network.add_node(node, float(node), 0.0)
    for u, v in edges:
        network.add_edge(u, v, 1.0)
    return network


@pytest.mark.usefixtures("kernel_path")
class TestGreedyTies:
    """Greedy's tie rules on hand-built instances, on both paths and on the
    reference twin."""

    def _answers(self, network, weights, delta, mu=0.2):
        instance = build_instance(
            network, LCMSRQuery.create(["t"], delta=delta), node_weights=weights
        )
        solver = GreedySolver(mu=mu)
        answer = solver.solve_topk(instance, k=2)
        reference = twin(solver).solve_topk(instance, k=2)
        assert [_region(r)[:4] for r in answer] == [_region(r)[:4] for r in reference]
        return [sorted(r.region.nodes) for r in answer]

    def test_a_sigma_tie_seeds_at_the_largest_id(self):
        # 3 and 7 share the largest σ; the first region seeds at 7, the
        # second, with 7 excluded, at 3.
        network = _network([1, 3, 5, 7], [(1, 3), (3, 5), (5, 7)])
        weights = {1: 0.2, 3: 0.9, 5: 0.4, 7: 0.9}
        assert self._answers(network, weights, delta=0.0) == [[7], [3]]

    def test_a_rank_tie_within_1e12_goes_to_the_smaller_id(self):
        # With µ = 0 a candidate's rank is σ / σ_max. Seed 9's row lists 5
        # first and then 2, whose rank is lower by 4e-13: within 1e-12, so
        # the smaller id 2 wins. The second region seeds at 5, whose only
        # neighbour 9 is taken.
        network = _network([2, 5, 9], [(9, 5), (9, 2)])
        weights = {9: 1.0, 5: 0.5 + 4e-13, 2: 0.5}
        assert self._answers(network, weights, delta=1.0, mu=0.0) == [[2, 9], [5]]

    def test_a_rank_gap_over_1e12_goes_to_the_higher_rank(self):
        network = _network([2, 5, 9], [(9, 5), (9, 2)])
        weights = {9: 1.0, 5: 0.5 + 4e-12, 2: 0.5}
        assert self._answers(network, weights, delta=1.0, mu=0.0) == [[5, 9], [2]]


@pytest.mark.usefixtures("kernel_path")
class TestGreedyBoundaries:
    """The length test's 1e-12 slack and the compaction threshold, at their
    boundaries, on both paths and against the reference twin."""

    @pytest.mark.parametrize("step", [0, 1], ids=["at-slack", "past-slack"])
    def test_an_edge_fits_up_to_delta_plus_1e12(self, step):
        length = 1.0 + 1e-12
        if step:
            length = math.nextafter(length, math.inf)
        network = RoadNetwork()
        network.add_node(1, 0.0, 0.0)
        network.add_node(2, 1.0, 0.0)
        network.add_edge(1, 2, length)
        instance = build_instance(
            network, LCMSRQuery.create(["t"], delta=1.0), node_weights={1: 1.0, 2: 0.5}
        )
        result = GreedySolver().solve(instance)
        assert _region(result)[:4] == _region(twin(GreedySolver()).solve(instance))[:4]
        assert sorted(result.region.nodes) == ([1] if step else [1, 2])

    @pytest.mark.parametrize("freeze", [False, True], ids=["road", "csr"])
    def test_compaction_needs_over_half_of_the_table_dead(self, freeze):
        # Seed 0 has 34 leaves at 1 m and 31 at 10 m, and ∆ = 10.5 m. Once
        # the first leaf joins, the second round's table holds 66 entries, of
        # which exactly 33 are dead (the leaf both ways and the 31 long
        # edges): half is not enough, so the third round compacts 36 entries.
        # Ten short leaves then fill ∆. The CSR freeze of the star, which is
        # what a served window is cut from, must count the same.
        network = RoadNetwork()
        network.add_node(0, 0.0, 0.0)
        for leaf in range(1, 66):
            network.add_node(leaf, float(leaf), 1.0)
            network.add_edge(0, leaf, 1.0 if leaf <= 34 else 10.0)
        weights = {node: 1.0 if node == 0 else 0.5 for node in network.node_ids()}
        graph = CompactNetwork.from_network(network) if freeze else network
        instance = build_instance(
            graph, LCMSRQuery.create(["t"], delta=10.5), node_weights=weights
        )
        result = GreedySolver().solve(instance)
        assert _region(result)[:4] == _region(twin(GreedySolver()).solve(instance))[:4]
        assert sorted(result.region.nodes) == list(range(11))
        assert result.stats["greedy_candidates_scanned"] == 482.0
        assert result.stats["greedy_candidates_compacted"] == 36.0
