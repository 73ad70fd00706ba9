"""The compiled kernel: its build and cache, a build that fails, concurrent
use, its input checks and failures, Greedy's tie rules, and the counters the
reference twins do not keep.

The answers themselves are checked against the reference twins in the parity
suites. The twins never prune, so TGEN's ``edges_skipped`` and Greedy's
``greedy_candidates_scanned`` and ``greedy_candidates_compacted`` are pinned
here to values derived by hand. The tie, boundary and counter tests run on
each instance as built and as the serving layer's instance cache rebinds it
(the ``route`` fixture).
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


class TestBuildAndCache:
    def test_a_missing_compiler_raises_import_error(self, tmp_path):
        with pytest.raises(ImportError) as raised:
            kernel.load(tmp_path, compiler="repro-no-such-compiler")
        message = str(raised.value)
        command = "`repro-no-such-compiler -std=c99 -O2 -ffp-contract=off -fPIC -shared -o "
        assert command in message
        assert f"{kernel.SOURCE}` could not start" in message
        assert "No such file or directory" in message
        assert list(tmp_path.iterdir()) == []

    def test_a_failing_compiler_raises_import_error_quoting_its_output(self, tmp_path):
        compiler = tmp_path / "bin" / "cc"
        compiler.parent.mkdir()
        compiler.write_text(
            "#!/bin/sh\necho 'kernel.c:1:1: error: refused' >&2\nexit 3\n"
        )
        compiler.chmod(0o755)
        cache = tmp_path / "cache"
        with pytest.raises(ImportError) as raised:
            kernel.load(cache, compiler=str(compiler))
        message = str(raised.value)
        assert f"`{compiler} -std=c99 -O2 -ffp-contract=off -fPIC -shared -o " in message
        assert message.endswith(
            f"{kernel.SOURCE}` exited with status 3:\nkernel.c:1:1: error: refused"
        )
        assert list(cache.iterdir()) == []

    def test_an_unwritable_cache_builds_a_private_library(self, tmp_path):
        # A file where the cache directory would go makes it unwritable, as
        # a read-only install does. The child builds into a private
        # directory, solves with that library, and removes it on exit.
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        done = _run(
            "import sys\n"
            "from pathlib import Path\n"
            "from repro.core import LCMSRQuery, build_instance, kernel\n"
            "from repro.core.tgen import TGENSolver\n"
            "from repro.network.builders import paper_example_network\n"
            "library = kernel.load(Path(sys.argv[1]) / 'cache')\n"
            "assert library.path.is_file() and library.path != kernel.LIBRARY.path\n"
            "kernel.LIBRARY = library\n"
            "weights = {1: 0.2, 2: 0.3, 3: 0.4, 4: 0.2, 5: 0.2, 6: 0.4}\n"
            "instance = build_instance(paper_example_network(),\n"
            "    LCMSRQuery.create(['t'], delta=6.0), node_weights=weights)\n"
            "result = TGENSolver(alpha=0.15).solve(instance)\n"
            "print(library.path, sorted(result.region.nodes), result.scaled_weight)\n",
            str(blocker),
        )
        assert done.returncode == 0, done.stderr
        path, *answer = done.stdout.split()
        assert answer == ["[2,", "4,", "5,", "6]", "110"]
        assert not Path(path).exists(), "the private directory outlived the process"
        assert [entry.name for entry in tmp_path.iterdir()] == ["file"]

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
            "library = kernel.load(Path(sys.argv[1]))\n"
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
        self, paper_instance, solver, route
    ):
        class FailingBudget:
            def expired(self):
                raise RuntimeError("the budget failed")

        with pytest.raises(RuntimeError, match="the budget failed"):
            solver.solve(route(paper_instance).with_budget(FailingBudget()))

    def test_a_poll_budget_stops_greedy_after_the_same_round(self, instances):
        solver = GreedySolver()
        truncated = 0
        for instance in instances:
            for polls in (0, 1, 3, 8, 1000):
                kernel_answer = solver.solve(instance.with_budget(PollBudget(polls)))
                reference = twin(solver).solve(instance.with_budget(PollBudget(polls)))
                assert _region(kernel_answer)[:4] == _region(reference)[:4], polls
                assert kernel_answer.stats.get("budget_expired") == (
                    reference.stats.get("budget_expired")
                ), polls
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
        # Every instance is built afresh, so the twins' solves, which walk
        # the list mirrors, leave none on the instances the kernel solves.
        engine = LCMSREngine.from_bundle(
            IndexBundle.build(tiny_ny_dataset.network, tiny_ny_dataset.corpus)
        )
        queries = generate_workload(
            tiny_ny_dataset, num_queries=3, num_keywords=3, delta=1500.0, area_km2=2.0,
            seed=11,
        )

        def answers(oracle):
            found = []
            for query in queries:
                instance = engine.build_instance(query)
                for solver in (GreedySolver(), TGENSolver()):
                    solver = twin(solver) if oracle else solver
                    found.append((
                        _region(solver.solve(instance))[:5],
                        [_region(r)[:5] for r in solver.solve_topk(instance, k=3)],
                    ))
            return found

        expected = answers(oracle=True)

        def refuse(*args, **kwargs):
            raise AssertionError("a kernel solve built a window-sized list")

        monkeypatch.setattr(CompactNetwork, "_materialize_lists", refuse)
        assert answers(oracle=False) == expected

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


class TestGreedyTies:
    """Greedy's tie rules on hand-built instances, against the reference
    twin."""

    def _answers(self, route, network, weights, delta, mu=0.2):
        query = LCMSRQuery.create(["t"], delta=delta)
        instance = route(build_instance(network, query, node_weights=weights))
        solver = GreedySolver(mu=mu)
        answer = solver.solve_topk(instance, k=2)
        reference = twin(solver).solve_topk(instance, k=2)
        assert [_region(r)[:4] for r in answer] == [_region(r)[:4] for r in reference]
        return [sorted(r.region.nodes) for r in answer]

    def test_a_sigma_tie_seeds_at_the_largest_id(self, route):
        # 3 and 7 share the largest σ; the first region seeds at 7, the
        # second, with 7 excluded, at 3.
        network = _network([1, 3, 5, 7], [(1, 3), (3, 5), (5, 7)])
        weights = {1: 0.2, 3: 0.9, 5: 0.4, 7: 0.9}
        assert self._answers(route, network, weights, delta=0.0) == [[7], [3]]

    def test_a_rank_tie_within_1e12_goes_to_the_smaller_id(self, route):
        # With µ = 0 a candidate's rank is σ / σ_max. Seed 9's row lists 5
        # first and then 2, whose rank is lower by 4e-13: within 1e-12, so
        # the smaller id 2 wins. The second region seeds at 5, whose only
        # neighbour 9 is taken.
        network = _network([2, 5, 9], [(9, 5), (9, 2)])
        weights = {9: 1.0, 5: 0.5 + 4e-13, 2: 0.5}
        assert self._answers(route, network, weights, delta=1.0, mu=0.0) == [[2, 9], [5]]

    def test_a_rank_gap_over_1e12_goes_to_the_higher_rank(self, route):
        network = _network([2, 5, 9], [(9, 5), (9, 2)])
        weights = {9: 1.0, 5: 0.5 + 4e-12, 2: 0.5}
        assert self._answers(route, network, weights, delta=1.0, mu=0.0) == [[5, 9], [2]]


def _star(freeze=False):
    """Seed 0 with 34 leaves at 1 m and 31 at 10 m, σ 1.0 at the seed and 0.5
    at every leaf, and ∆ = 10.5 m. ``freeze`` builds on the star's CSR
    freeze, which is what a served window is cut from."""
    network = RoadNetwork()
    network.add_node(0, 0.0, 0.0)
    for leaf in range(1, 66):
        network.add_node(leaf, float(leaf), 1.0)
        network.add_edge(0, leaf, 1.0 if leaf <= 34 else 10.0)
    weights = {node: 1.0 if node == 0 else 0.5 for node in network.node_ids()}
    graph = CompactNetwork.from_network(network) if freeze else network
    return build_instance(graph, LCMSRQuery.create(["t"], delta=10.5), node_weights=weights)


class TestGreedyBoundaries:
    """The length test's 1e-12 slack and the compaction threshold, at their
    boundaries, against the reference twin."""

    @pytest.mark.parametrize("step", [0, 1], ids=["at-slack", "past-slack"])
    def test_an_edge_fits_up_to_delta_plus_1e12(self, step, route):
        length = 1.0 + 1e-12
        if step:
            length = math.nextafter(length, math.inf)
        network = RoadNetwork()
        network.add_node(1, 0.0, 0.0)
        network.add_node(2, 1.0, 0.0)
        network.add_edge(1, 2, length)
        query = LCMSRQuery.create(["t"], delta=1.0)
        instance = route(build_instance(network, query, node_weights={1: 1.0, 2: 0.5}))
        result = GreedySolver().solve(instance)
        assert _region(result)[:4] == _region(twin(GreedySolver()).solve(instance))[:4]
        assert sorted(result.region.nodes) == ([1] if step else [1, 2])

    @pytest.mark.parametrize("freeze", [False, True], ids=["road", "csr"])
    def test_compaction_needs_over_half_of_the_table_dead(self, freeze, route):
        # A short leaf ranks 0.2 · 0.9 + 0.8 · 0.5 = 0.58 and a long one 0.4,
        # so short leaves join in id order. Round 1 appends the seed's 65
        # entries and takes leaf 1. Round 2's table holds 66 entries, of
        # which exactly 33 are dead (the leaf both ways and the 31 long
        # edges, since 1 + 10 > 10.5): half is not enough. Round 3 scans 67
        # with 35 dead, takes leaf 3 and then compacts 36 (leaf 3 joined),
        # keeping leaves 4 to 34. Rounds 4 to 10 scan 32 to 38 entries and
        # take leaves 4 to 10, filling ∆; round 11 scans 39 and takes none:
        # 65 + 66 + 67 + (32 + ... + 39) = 482 scanned. The CSR freeze must
        # count the same.
        instance = route(_star(freeze))
        result = GreedySolver().solve(instance)
        assert _region(result)[:4] == _region(twin(GreedySolver()).solve(instance))[:4]
        assert sorted(result.region.nodes) == list(range(11))
        assert result.stats["greedy_candidates_scanned"] == 482.0
        assert result.stats["greedy_candidates_compacted"] == 36.0


class TestCounters:
    """The counters the twins do not keep, derived by hand."""

    def test_greedy_counts_accumulate_over_top_k_regions(self, route):
        # Region 1 is the star's {0, ..., 10}: 482 scanned, 36 compacted (see
        # test_compaction_needs_over_half_of_the_table_dead). Region 2 seeds
        # at the largest id of σ 0.5 left, the long leaf 65; its one entry,
        # to the taken seed, is dead, so it scans 1 and stops. Region 3 does
        # the same from leaf 64: 482 + 1 + 1 = 484.
        instance = route(_star())
        solver = GreedySolver()
        result = solver.solve_topk(instance, k=3)
        reference = twin(solver).solve_topk(instance, k=3)
        assert [_region(r)[:4] for r in result] == [_region(r)[:4] for r in reference]
        assert [sorted(r.region.nodes) for r in result] == [list(range(11)), [65], [64]]
        assert result.stats["greedy_candidates_scanned"] == 484.0
        assert result.stats["greedy_candidates_compacted"] == 36.0

    @pytest.mark.parametrize(
        "polls, nodes, scanned, compacted",
        [(2, 3, 65 + 66, 0), (3, 4, 65 + 66 + 67, 36)],
        ids=["before-compaction", "after-compaction"],
    )
    def test_greedy_counts_stop_with_the_budget(
        self, polls, nodes, scanned, compacted, route
    ):
        # Each round polls once before its scan, so a budget of p polls runs
        # p rounds, each taking one short leaf, and expires at the next:
        # rounds 1 to 3 scan 65, 66 and 67 entries, and only round 3
        # compacts (see test_compaction_needs_over_half_of_the_table_dead).
        instance = route(_star())
        solver = GreedySolver()
        result = solver.solve(instance.with_budget(PollBudget(polls)))
        reference = twin(solver).solve(instance.with_budget(PollBudget(polls)))
        assert _region(result)[:4] == _region(reference)[:4]
        assert sorted(result.region.nodes) == list(range(nodes))
        assert result.stats["budget_expired"] == 1.0
        assert result.stats["greedy_candidates_scanned"] == float(scanned)
        assert result.stats["greedy_candidates_compacted"] == float(compacted)

    def test_tgen_skips_an_edge_between_zero_scaled_arrays(self, route):
        # The path 1-2-3-4-5 of 1 m edges, σ 0.6 at 1 and 0.4 at 2, ∆ = 1 m.
        # The BFS starts at 1, the heaviest node:
        # - (1, 2) pairs the singletons into {1, 2}, the incumbent, stored
        #   at both ends: 1 tuple;
        # - (2, 3) pairs 2's {2} and {1, 2} with 3's {3}: {2, 3} is
        #   generated and stored at 3 under σ 0.4's key, while {1, 2, 3}
        #   would be 2 m long: 1 tuple;
        # - (3, 4) pairs 3's {3} and {2, 3} with {4}: {3, 4} is generated
        #   (its zero key is held at both ends by a singleton), {2, 3, 4}
        #   would be 2 m long: 1 tuple;
        # - (4, 5) joins two arrays that hold only zero-scaled tuples while
        #   the incumbent's is positive, so it is skipped.
        # The twin skips nothing and pairs {4} with {5} there too.
        network = _network([1, 2, 3, 4, 5], [(1, 2), (2, 3), (3, 4), (4, 5)])
        query = LCMSRQuery.create(["t"], delta=1.0)
        instance = route(build_instance(network, query, node_weights={1: 0.6, 2: 0.4}))
        solver = TGENSolver()
        result = solver.solve(instance)
        reference = twin(solver).solve(instance)
        assert _region(result)[:5] == _region(reference)[:5]
        assert sorted(result.region.nodes) == [1, 2]
        counters = ("tuples_generated", "edges_processed", "edges_skipped")
        assert [result.stats[key] for key in counters] == [3.0, 3.0, 1.0]
        assert [reference.stats[key] for key in counters[:2]] == [4.0, 4.0]
