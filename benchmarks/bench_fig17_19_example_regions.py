"""Figures 17-19: qualitative example — the regions TGEN, APP and Greedy return for
the same query.

The paper's example uses the Bronx with keywords "cafe restaurant" and an 8 km length
constraint: Greedy returns 7 objects (weight 3.6), APP 11 objects (weight 4.8) and
TGEN 15 objects (weight 5.9), all with street-aligned irregular shapes. This bench
runs the same style of query on the NY-like dataset, prints the per-algorithm object
counts and weights, and checks that the qualitative ordering and the irregular-shape
property (the region is a tree along the streets, not a filled block) hold.
"""

from __future__ import annotations

from repro.core import APPSolver, GreedySolver, LCMSRQuery, TGENSolver
from repro.evaluation.reporting import format_table
from repro.network.subgraph import Rectangle

from benchmarks.conftest import NY_PARAMS, paper_km_to_bench_meters


def test_fig17_19_example_regions(benchmark, ny_dataset, ny_runner):
    # A neighbourhood-scale window and the paper's "cafe restaurant" query with an
    # 8 km budget (scaled).
    extent = ny_dataset.extent
    cx, cy = extent.center()
    window = Rectangle.square_of_area(cx, cy, 3.0 * 1e6)
    query = LCMSRQuery.create(
        ["cafe", "restaurant"], delta=paper_km_to_bench_meters(8.0), region=window
    )
    instance = ny_runner.build(query)

    solvers = {
        "TGEN": TGENSolver(),
        "APP": APPSolver(alpha=NY_PARAMS["app_alpha"], beta=NY_PARAMS["app_beta"]),
        "Greedy": GreedySolver(mu=NY_PARAMS["greedy_mu"]),
    }
    rows = []
    results = {}
    for name, solver in solvers.items():
        result = solver.solve(instance)
        results[name] = result
        relevant_objects = sum(
            1
            for node_id in result.region.nodes
            for oid in ny_dataset.mapping.objects_at(node_id)
            if ny_dataset.corpus.get(oid).contains_any(query.keywords)
        )
        rows.append(
            [name, relevant_objects, result.weight, result.length, result.region.num_nodes]
        )

    print()
    print(
        format_table(
            ["algorithm", "relevant objects", "weight", "length (m)", "nodes"],
            rows,
            title="Figures 17-19 (reproduced): example regions for 'cafe restaurant'",
        )
    )

    # Paper shape: Greedy's region is the lightest of the three; the best of APP/TGEN
    # clearly beats it; every region is connected and street-aligned (a subgraph whose
    # edge count stays close to a tree rather than a filled disk).
    best_weight = max(results["APP"].weight, results["TGEN"].weight)
    assert results["Greedy"].weight <= best_weight + 1e-9
    for result in results.values():
        if result.region.num_nodes > 1:
            assert result.region.is_connected()
            assert result.region.num_edges <= result.region.num_nodes + 2

    benchmark.pedantic(lambda: solvers["TGEN"].solve(instance), rounds=1, iterations=1)
