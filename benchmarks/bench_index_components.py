"""Micro-benchmarks of the substrates: Dijkstra and MaxRS.

These are not paper figures; they document the cost of the main graph primitive
the algorithms are built on and of the MaxRS baseline, so regressions in the
substrates are visible separately from the solver benchmarks.
"""

from __future__ import annotations

from repro.baselines.maxrs import MaxRSSolver
from repro.network.compact import CompactNetwork
from repro.network.shortest_path import dijkstra

from benchmarks.conftest import window_object_scores


def test_bench_dijkstra(benchmark, ny_dataset):
    # Frozen once, outside the timed call: the rounds time Dijkstra, not a freeze.
    network = CompactNetwork.from_network(ny_dataset.network)
    source = next(network.node_ids())

    def run():
        dist, _ = dijkstra(network, source)
        return len(dist)

    settled = benchmark(run)
    assert settled == network.num_nodes


def test_bench_maxrs(benchmark, ny_dataset, ny_default_workload):
    query = ny_default_workload[0]
    scores = window_object_scores(ny_dataset, query.keywords, query.region)
    points = {oid: ny_dataset.corpus.get(oid).location() for oid in scores}
    solver = MaxRSSolver(width=500.0, height=500.0)

    result = benchmark(lambda: solver.solve(points, scores, window=query.region))
    assert result.weight >= 0.0
