"""Comparison with fixed-rectangle retrieval (the paper's Section 7.5 study).

Earlier work answers "where are the interesting places?" with a fixed-size rectangle
(the maximum range-sum query, MaxRS). This example runs both answers side by side on
the same dataset and query keywords:

1. find the best 500 m x 500 m MaxRS rectangle,
2. derive a comparable LCMSR length budget — the minimum road length needed to connect
   the rectangle's relevant objects (the paper's procedure),
3. run the LCMSR query (TGEN) with that budget, and
4. report coverage, connectivity and the verdict of the simulated annotator panel.

Run with:  python examples/compare_with_maxrs.py
"""

from __future__ import annotations

from repro import LCMSREngine, MaxRSSolver, build_ny_like
from repro.core import LCMSRQuery, TGENSolver
from repro.datasets.queries import generate_workload
from repro.evaluation.survey import RegionJudgement, run_survey
from repro.network.shortest_path import steiner_tree_length
from repro.textindex.relevance import RelevanceScorer


def main() -> None:
    dataset = build_ny_like()
    engine = LCMSREngine(dataset.network, dataset.corpus)
    scorer = RelevanceScorer(dataset.corpus, dataset.mapping)
    maxrs = MaxRSSolver(width=500.0, height=500.0)
    tgen = TGENSolver()

    queries = generate_workload(
        dataset, num_queries=6, num_keywords=2, delta=2000.0, area_km2=4.0, seed=2014
    )

    pairs = []
    for query in queries:
        # Score the relevant objects inside the query window.
        scores = {}
        for obj in dataset.corpus:
            if query.region.contains(obj.x, obj.y):
                score = scorer.object_score(obj, query.keywords)
                if score > 0.0:
                    scores[obj.object_id] = score
        if not scores:
            continue
        points = {oid: dataset.corpus.get(oid).location() for oid in scores}
        rectangle_answer = maxrs.solve(points, scores, window=query.region)
        if rectangle_answer.rectangle is None:
            continue

        # The paper's budget: road length connecting the rectangle's relevant objects.
        terminals = [dataset.mapping.node_of(oid) for oid in rectangle_answer.covered_ids]
        budget = max(steiner_tree_length(dataset.network, terminals), 500.0)

        lcmsr_query = LCMSRQuery.create(query.keywords, delta=budget, region=query.region)
        lcmsr_answer = tgen.solve(engine.build_instance(lcmsr_query))
        lcmsr_objects = sum(
            1
            for node_id in lcmsr_answer.region.nodes
            for oid in dataset.mapping.objects_at(node_id)
            if oid in scores
        )

        print(f"query {query.keywords}  (budget {budget:.0f} m)")
        print(f"  MaxRS : {len(rectangle_answer.covered_ids):3d} relevant objects, "
              f"weight {rectangle_answer.weight:6.2f}, fixed 500x500 m rectangle")
        print(f"  LCMSR : {lcmsr_objects:3d} relevant objects, "
              f"weight {lcmsr_answer.weight:6.2f}, connected street region "
              f"of {lcmsr_answer.length:.0f} m\n")

        pairs.append(
            (
                RegionJudgement(lcmsr_objects, lcmsr_answer.weight, True,
                                max(lcmsr_answer.length, 1.0)),
                RegionJudgement(len(rectangle_answer.covered_ids), rectangle_answer.weight,
                                False, budget),
            )
        )

    verdict = run_survey(pairs, num_annotators=5, majority=3)
    print(f"simulated 5-annotator panel over {verdict.queries} queries: "
          f"LCMSR preferred on {verdict.lcmsr_preference_rate:.0%} "
          f"(paper reports 90%)")


if __name__ == "__main__":
    main()
