"""Dict vs CSR network backend: window extraction, Dijkstra, end-to-end queries.

Not a paper figure — this benchmarks the frozen
:class:`~repro.network.compact.CompactNetwork` snapshot introduced for the serving
path against the mutable dict-of-dicts :class:`~repro.network.graph.RoadNetwork`.
Three claims are exercised:

1. **Window-instance construction** is at least 2x faster on the CSR backend: the
   snapshot filters nodes with one vectorised coordinate comparison instead of
   rebuilding node and adjacency dicts per query window.
2. **Fidelity**: Dijkstra returns identical ``(dist, parent)`` mappings on both
   backends, and every solver (Greedy, TGEN, APP) answers identically over
   instances built on the dict-backed network and on the CSR snapshot.
3. **End-to-end cold queries** (instance build + solve) are measurably faster
   on the CSR snapshot.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_network_backend.py -q -s
"""

from __future__ import annotations

import time
from typing import List

from repro.core.app import APPSolver
from repro.core.greedy import GreedySolver
from repro.core.instance import build_instance
from repro.core.query import LCMSRQuery
from repro.core.tgen import TGENSolver
from repro.datasets.queries import generate_workload
from repro.evaluation.reporting import format_table
from repro.network.builders import manhattan_network
from repro.network.compact import CompactNetwork
from repro.network.shortest_path import dijkstra
from repro.network.subgraph import Rectangle, induced_subgraph
from repro.service.bundle import IndexBundle

from benchmarks.conftest import FULL_SCALE, SMOKE_SCALE

if FULL_SCALE:
    GRID_SIDE = 80  # 6400 nodes
    NUM_WINDOWS = 40
    NUM_SOURCES = 12
elif SMOKE_SCALE:
    GRID_SIDE = 30
    NUM_WINDOWS = 12
    NUM_SOURCES = 4
else:
    GRID_SIDE = 48  # 2304 nodes
    NUM_WINDOWS = 24
    NUM_SOURCES = 8

BLOCK = 120.0  # meters per block, matching the NY-like builder


def _network():
    return manhattan_network(GRID_SIDE, GRID_SIDE, spacing=BLOCK, seed=23)


def _windows(network) -> List[Rectangle]:
    """Query windows of varying size tiled over the network extent."""
    min_x, min_y, max_x, max_y = network.bounding_box()
    spans = [(max_x - min_x) * f for f in (0.25, 0.35, 0.5)]
    windows = []
    for index in range(NUM_WINDOWS):
        span = spans[index % len(spans)]
        fx = (index * 0.37) % 0.6
        fy = (index * 0.53) % 0.6
        x0 = min_x + fx * (max_x - min_x)
        y0 = min_y + fy * (max_y - min_y)
        windows.append(Rectangle(x0, y0, min(x0 + span, max_x), min(y0 + span, max_y)))
    return windows


def test_bench_window_instance_construction_2x():
    network = _network()
    snapshot = CompactNetwork.from_network(network)
    windows = _windows(network)
    weights = {node_id: 1.0 for i, node_id in enumerate(network.node_ids()) if i % 5 == 0}
    queries = [
        LCMSRQuery.create(["kw"], delta=4.0 * BLOCK, region=window) for window in windows
    ]

    def build_all(graph) -> float:
        start = time.perf_counter()
        for _ in range(3):  # repeat for timing stability; each build is cold
            for query in queries:
                build_instance(graph, query, node_weights=weights)
        return time.perf_counter() - start

    build_all(network)  # warm both paths once before timing
    build_all(snapshot)
    dict_seconds = build_all(network)
    csr_seconds = build_all(snapshot)

    # Fidelity: each window resolves to the same sub-network and weights.
    for query in queries[:: max(1, len(queries) // 6)]:
        dict_instance = build_instance(network, query, node_weights=weights)
        csr_instance = build_instance(snapshot, query, node_weights=weights)
        assert set(dict_instance.graph.node_ids()) == set(csr_instance.graph.node_ids())
        assert dict_instance.num_candidate_edges == csr_instance.num_candidate_edges
        assert dict_instance.weights == csr_instance.weights

    builds = 3 * len(queries)
    print()
    print(format_table(
        ["backend", "windows", "seconds", "windows/sec"],
        [
            ["dict", builds, dict_seconds, builds / dict_seconds],
            ["csr snapshot", builds, csr_seconds, builds / csr_seconds],
        ],
        title=f"window-instance construction, {network.num_nodes}-node network "
              f"(speedup {dict_seconds / csr_seconds:.1f}x)",
    ))
    assert csr_seconds * 2.0 <= dict_seconds, (
        f"CSR window-instance construction must be >=2x faster: "
        f"dict {dict_seconds:.4f}s vs csr {csr_seconds:.4f}s"
    )


def test_bench_window_extraction_raw():
    """Raw subgraph extraction (no weights), the windowing primitive itself."""
    network = _network()
    snapshot = CompactNetwork.from_network(network)
    windows = _windows(network)

    def extract_all(graph) -> float:
        start = time.perf_counter()
        for _ in range(3):  # repeat for timing stability; each extraction is cold
            for window in windows:
                induced_subgraph(graph, window)
        return time.perf_counter() - start

    extract_all(network)
    extract_all(snapshot)
    dict_seconds = extract_all(network)
    csr_seconds = extract_all(snapshot)
    extractions = 3 * len(windows)
    print()
    print(format_table(
        ["backend", "extractions", "seconds"],
        [["dict", extractions, dict_seconds], ["csr snapshot", extractions, csr_seconds]],
        title=f"raw window extraction (speedup {dict_seconds / csr_seconds:.1f}x)",
    ))
    assert csr_seconds * 2.0 <= dict_seconds


def test_bench_dijkstra_parity_and_cost():
    network = _network()
    snapshot = CompactNetwork.from_network(network)
    sources = list(network.node_ids())[:: max(1, network.num_nodes // NUM_SOURCES)]

    start = time.perf_counter()
    dict_runs = [dijkstra(network, source) for source in sources]
    dict_seconds = time.perf_counter() - start
    start = time.perf_counter()
    csr_runs = [dijkstra(snapshot, source) for source in sources]
    csr_seconds = time.perf_counter() - start

    # Fidelity: identical distances AND identical parent trees.
    for (dist_d, parent_d), (dist_c, parent_c) in zip(dict_runs, csr_runs):
        assert dist_d == dist_c
        assert parent_d == parent_c

    print()
    print(format_table(
        ["backend", "runs", "seconds"],
        [["dict", len(sources), dict_seconds], ["csr snapshot", len(sources), csr_seconds]],
        title=f"full-graph Dijkstra (speedup {dict_seconds / csr_seconds:.2f}x)",
    ))
    # The heap dominates full-graph Dijkstra, so the CSR win is modest; the bar
    # here is parity plus no regression (generous noise margin).
    assert csr_seconds <= dict_seconds * 1.25


def test_bench_end_to_end_cold_queries(ny_dataset):
    bundle = IndexBundle.build(ny_dataset.network, ny_dataset.corpus)
    pipeline = bundle.weight_pipeline()
    dict_graph, csr_graph = ny_dataset.network, bundle.graph_view()
    workload = generate_workload(
        ny_dataset, num_queries=8, num_keywords=3, delta=2000.0, area_km2=4.0, seed=7
    )

    def solve(graph, query, solver):
        return solver.solve(build_instance(graph, query, pipeline=pipeline))

    # Fidelity first: every solver answers identically on both backends.
    for solver in (GreedySolver(), TGENSolver(), APPSolver()):
        for query in workload:
            a = solve(dict_graph, query, solver)
            b = solve(csr_graph, query, solver)
            assert a.region.nodes == b.region.nodes, (solver.name, query.keywords)
            assert a.region.edges == b.region.edges
            assert abs(a.weight - b.weight) < 1e-9
            assert abs(a.length - b.length) < 1e-9

    # Cold end-to-end cost on the build-dominated path (greedy): every query
    # rebuilds its window instance, which is exactly what the snapshot speeds up.
    passes = 2 if SMOKE_SCALE else 4
    greedy = GreedySolver()

    def run_cold(graph) -> float:
        start = time.perf_counter()
        for _ in range(passes):
            for query in workload:
                solve(graph, query, greedy)
        return time.perf_counter() - start

    run_cold(dict_graph)  # warm code paths / caches that are not per-query
    run_cold(csr_graph)
    dict_seconds = run_cold(dict_graph)
    csr_seconds = run_cold(csr_graph)
    total = passes * len(workload)
    print()
    print(format_table(
        ["backend", "cold queries", "seconds", "queries/sec"],
        [
            ["dict", total, dict_seconds, total / dict_seconds],
            ["csr snapshot", total, csr_seconds, total / csr_seconds],
        ],
        title=f"end-to-end cold queries, greedy (speedup {dict_seconds / csr_seconds:.2f}x)",
    ))
    assert csr_seconds < dict_seconds, (
        f"the CSR snapshot must serve cold queries faster: "
        f"dict {dict_seconds:.4f}s vs csr {csr_seconds:.4f}s"
    )
