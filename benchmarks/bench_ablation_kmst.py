"""Ablation: the GW-based quota solver inside APP.

The paper uses Garg's GW-based 3-approximation as the k-MST black box. This ablation
measures what that machinery buys: it compares the candidate trees produced by the
full λ-ladder GW quota solver against a degenerate configuration with a single λ rung
(equivalent to one fixed Lagrangian guess), across a range of quotas, reporting tree
length (lower is better at equal quota) and the end-to-end APP result weight. The
metric-closure GW and the cached λ ladder are listed under "Deviations from the
paper" in ``docs/ARCHITECTURE.md``.
"""

from __future__ import annotations

from repro.core import APPSolver
from repro.core.kmst import QuotaTreeSolver
from repro.core.scaling import ScalingContext
from repro.evaluation.reporting import format_table

from benchmarks.conftest import NY_PARAMS


def test_ablation_quota_solver_ladder(benchmark, ny_runner, ny_default_workload):
    instance = ny_runner.build(ny_default_workload[0])
    scaling = ScalingContext.build(
        instance.weights, instance.num_candidate_nodes, NY_PARAMS["app_alpha"]
    )
    scaled = scaling.scale_weights(instance.weights)

    full = QuotaTreeSolver(instance.graph, instance.weights, scaled)
    single_rung = QuotaTreeSolver(
        instance.graph, instance.weights, scaled, lambda_factors=(1.0,)
    )

    total = full.total_scaled_weight()
    quotas = [max(1, int(total * fraction)) for fraction in (0.1, 0.25, 0.5, 0.75)]
    rows = []
    for quota in quotas:
        tree_full = full.solve(quota)
        tree_single = single_rung.solve(quota)
        rows.append(
            [
                quota,
                "-" if tree_full is None else round(tree_full.length, 1),
                "-" if tree_single is None else round(tree_single.length, 1),
            ]
        )
        if tree_full is not None and tree_single is not None:
            # The ladder can only help: at equal quota its tree is never longer by
            # more than a small slack (both use the same GW machinery underneath).
            assert tree_full.length <= tree_single.length * 1.05 + 1e-9

    print()
    print(
        format_table(
            ["quota", "ladder tree length", "single-rung tree length"],
            rows,
            title="Ablation (reproduced): GW quota solver with vs without the lambda ladder",
        )
    )

    # End-to-end effect on APP.
    app_full = APPSolver(alpha=NY_PARAMS["app_alpha"], beta=0.1)
    app_single = APPSolver(alpha=NY_PARAMS["app_alpha"], beta=0.1, lambda_factors=(1.0,))
    result_full = app_full.solve(instance)
    result_single = app_single.solve(instance)
    print(
        f"\nAPP result weight: ladder={result_full.weight:.3f}, "
        f"single rung={result_single.weight:.3f}"
    )
    assert result_full.weight >= result_single.weight * 0.8

    benchmark.pedantic(lambda: app_full.solve(instance), rounds=1, iterations=1)
