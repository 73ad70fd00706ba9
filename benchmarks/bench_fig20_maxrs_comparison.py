"""Figure 20 / Section 7.5: LCMSR vs. MaxRS region quality.

The paper's procedure: for each query, compute the best 500 m × 500 m MaxRS rectangle,
derive a comparable LCMSR length budget as the minimum road length connecting the
rectangle's relevant objects, run the LCMSR query (TGEN), and have 5 annotators judge
which region is better; LCMSR wins on 90 % of the 20 queries. The reproduction follows
the same procedure with the simulated annotator panel and a rectangle scaled like the
other spatial parameters (both under "Deviations from the paper" in
``docs/ARCHITECTURE.md``).
"""

from __future__ import annotations

from repro.baselines.maxrs import MaxRSSolver
from repro.core import LCMSRQuery, TGENSolver
from repro.datasets.queries import generate_workload
from repro.evaluation.reporting import format_table
from repro.evaluation.survey import RegionJudgement, run_survey
from repro.network.shortest_path import steiner_tree_length

from benchmarks.conftest import (
    NY_DEFAULTS,
    QUERIES_PER_SETTING,
    SPATIAL_SCALE,
    window_object_scores,
)

NUM_COMPARISON_QUERIES = max(8, 3 * QUERIES_PER_SETTING)
RECTANGLE_SIDE = 500.0 * SPATIAL_SCALE * 5  # paper: 500 m; kept neighbourhood-sized here


def test_fig20_lcmsr_vs_maxrs(benchmark, ny_dataset, ny_runner):
    workload = generate_workload(
        ny_dataset,
        num_queries=NUM_COMPARISON_QUERIES,
        num_keywords=2,
        delta=NY_DEFAULTS["delta"],
        area_km2=NY_DEFAULTS["area_km2"],
        seed=500,
    )
    maxrs_solver = MaxRSSolver(width=RECTANGLE_SIDE, height=RECTANGLE_SIDE)
    tgen = TGENSolver()
    corpus, mapping, network = ny_dataset.corpus, ny_dataset.mapping, ny_dataset.network

    pairs = []
    rows = []
    for query in workload:
        scores = window_object_scores(ny_dataset, query.keywords, query.region)
        if not scores:
            continue
        points = {oid: corpus.get(oid).location() for oid in scores}
        maxrs = maxrs_solver.solve(points, scores, window=query.region)
        if maxrs.rectangle is None:
            continue
        terminals = [mapping.node_of(oid) for oid in maxrs.covered_ids]
        budget = max(steiner_tree_length(network, terminals), RECTANGLE_SIDE)
        lcmsr_query = LCMSRQuery.create(query.keywords, delta=budget, region=query.region)
        lcmsr = tgen.solve(ny_runner.build(lcmsr_query))
        lcmsr_objects = sum(
            1
            for node_id in lcmsr.region.nodes
            for oid in mapping.objects_at(node_id)
            if oid in scores
        )
        pairs.append(
            (
                RegionJudgement(lcmsr_objects, lcmsr.weight, True, max(lcmsr.length, 1.0)),
                RegionJudgement(len(maxrs.covered_ids), maxrs.weight, False, budget),
            )
        )
        rows.append(
            [
                " ".join(query.keywords),
                lcmsr_objects,
                round(lcmsr.weight, 2),
                len(maxrs.covered_ids),
                round(maxrs.weight, 2),
            ]
        )

    result = run_survey(pairs, num_annotators=5, majority=3)
    print()
    print(
        format_table(
            ["query", "LCMSR objects", "LCMSR weight", "MaxRS objects", "MaxRS weight"],
            rows,
            title="Figure 20 / Section 7.5 (reproduced): per-query comparison",
        )
    )
    print(
        f"\nSimulated survey over {result.queries} queries: LCMSR preferred on "
        f"{result.lcmsr_preference_rate:.0%} (paper: 90%); "
        f"MaxRS wins {result.maxrs_wins}, ties {result.ties}"
    )
    assert result.queries >= 5
    # Paper headline: LCMSR regions are preferred on the large majority of queries.
    assert result.lcmsr_preference_rate >= 0.6

    representative = pairs[0]
    benchmark.pedantic(
        lambda: run_survey([representative] * 20), rounds=1, iterations=1
    )
