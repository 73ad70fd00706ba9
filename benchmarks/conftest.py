"""Shared fixtures and scale handling for the benchmark harness.

Every benchmark module regenerates one table or figure of the paper's Section 7. The
paper runs on city-scale road networks in C++; this reproduction runs on scaled-down
synthetic stand-ins in pure Python (DESIGN.md §3), so the absolute axis values are
mapped through a single scale factor:

* spatial scale ``SPATIAL_SCALE = 0.2`` — the paper's ``Q.∆ = 10 km`` becomes 2 km and
  its ``Q.Λ = 100 km²`` becomes 4 km² (0.2² × 100), keeping the ratio between the
  region budget and the query-window diameter identical to the paper's setting;
* TGEN's α axis is expressed through the *bucket resolution* ``⌊|VQ|/α⌋`` it induces,
  because that — not α itself — is what controls accuracy and cost (see
  ``ScalingContext.num_buckets``); the printed tables show both the paper's α and the
  scale-matched value used here.

Set the environment variable ``REPRO_BENCH_QUERIES`` (default 3) to run more queries
per setting, and ``REPRO_BENCH_FULL=1`` to use a larger dataset closer to the paper's
relative scale (slower). ``REPRO_BENCH_SMOKE=1`` does the opposite: one query per
setting on the smallest datasets, so the whole benchmark suite doubles as a quick
regression gate (``make bench-smoke`` runs it under a time cap).
"""

from __future__ import annotations

import os
from typing import Dict, List, Sequence, Tuple

import pytest

from repro.core import APPSolver, GreedySolver, TGENSolver
from repro.datasets.ny import build_ny_like
from repro.datasets.queries import generate_workload
from repro.datasets.synthetic import SyntheticDataset
from repro.datasets.usanw import build_usanw_like
from repro.evaluation.runner import ExperimentRunner
from repro.textindex.relevance import RelevanceScorer

SPATIAL_SCALE = 0.2
"""Kilometre-scale factor between the paper's workloads and the bench workloads."""

SMOKE_SCALE = os.environ.get("REPRO_BENCH_SMOKE", "0") == "1"
QUERIES_PER_SETTING = (
    1 if SMOKE_SCALE else int(os.environ.get("REPRO_BENCH_QUERIES", "2"))
)
FULL_SCALE = os.environ.get("REPRO_BENCH_FULL", "0") == "1" and not SMOKE_SCALE


def paper_km_to_bench_meters(km: float) -> float:
    """Map a paper length axis value (km) to bench meters."""
    return km * 1000.0 * SPATIAL_SCALE


def paper_km2_to_bench_km2(km2: float) -> float:
    """Map a paper area axis value (km²) to bench km²."""
    return km2 * SPATIAL_SCALE * SPATIAL_SCALE


# Default query arguments, mirroring Section 7.2 (NY) and 7.3 (USANW) defaults.
NY_DEFAULTS = {
    "keywords": 3,
    "delta": paper_km_to_bench_meters(10.0),
    "area_km2": paper_km2_to_bench_km2(100.0),
}
USANW_DEFAULTS = {
    "keywords": 3,
    "delta": paper_km_to_bench_meters(15.0),
    "area_km2": paper_km2_to_bench_km2(150.0),
}

# Solver parameter defaults the paper settles on after tuning (Sections 7.2.1 / 7.3).
NY_PARAMS = {"app_alpha": 0.5, "app_beta": 0.1, "greedy_mu": 0.2, "tgen_buckets": 32}
USANW_PARAMS = {"app_alpha": 0.1, "app_beta": 0.1, "greedy_mu": 0.4, "tgen_buckets": 32}


def window_object_scores(dataset: SyntheticDataset, keywords, window) -> Dict[int, float]:
    """Positive text-relevance scores of the objects inside ``window`` (MaxRS input)."""
    scorer = RelevanceScorer(dataset.corpus, dataset.mapping)
    scores = {}
    for obj in dataset.corpus:
        if window.contains(obj.x, obj.y):
            score = scorer.object_score(obj, keywords)
            if score > 0.0:
                scores[obj.object_id] = score
    return scores


def default_solvers(params: Dict[str, float]) -> list:
    """The three paper algorithms with the tuned parameters for a dataset."""
    tgen = TGENSolver()
    tgen.AUTO_BUCKETS = int(params["tgen_buckets"])
    return [
        TGENSolver(alpha=None),
        APPSolver(alpha=params["app_alpha"], beta=params["app_beta"]),
        GreedySolver(mu=params["greedy_mu"]),
    ]


@pytest.fixture(scope="session")
def ny_dataset() -> SyntheticDataset:
    """The NY-like benchmark dataset."""
    if FULL_SCALE:
        return build_ny_like(rows=70, cols=70, block_size=120.0, num_objects=18000,
                             num_clusters=60, seed=42)
    if SMOKE_SCALE:
        return build_ny_like(rows=26, cols=26, block_size=120.0, num_objects=2200,
                             num_clusters=14, seed=42)
    return build_ny_like(rows=42, cols=42, block_size=120.0, num_objects=6000,
                         num_clusters=28, seed=42)


@pytest.fixture(scope="session")
def usanw_dataset() -> SyntheticDataset:
    """The USANW-like benchmark dataset."""
    if FULL_SCALE:
        return build_usanw_like(num_nodes=6000, extent=28000.0, num_objects=6000,
                                num_clusters=45, seed=97)
    if SMOKE_SCALE:
        return build_usanw_like(num_nodes=900, extent=10000.0, num_objects=900,
                                num_clusters=12, seed=97)
    return build_usanw_like(num_nodes=2200, extent=16000.0, num_objects=2200,
                            num_clusters=22, seed=97)


@pytest.fixture(scope="session")
def ny_runner(ny_dataset) -> ExperimentRunner:
    return ExperimentRunner(ny_dataset)


@pytest.fixture(scope="session")
def usanw_runner(usanw_dataset) -> ExperimentRunner:
    return ExperimentRunner(usanw_dataset)


@pytest.fixture(scope="session")
def ny_default_workload(ny_dataset):
    """The default NY query set (3 keywords, scaled ∆ = 10 km, Λ = 100 km²)."""
    return generate_workload(
        ny_dataset,
        num_queries=QUERIES_PER_SETTING,
        num_keywords=NY_DEFAULTS["keywords"],
        delta=NY_DEFAULTS["delta"],
        area_km2=NY_DEFAULTS["area_km2"],
        seed=7,
    )


@pytest.fixture(scope="session")
def usanw_default_workload(usanw_dataset):
    """The default USANW query set (3 keywords, scaled ∆ = 15 km, Λ = 150 km²)."""
    return generate_workload(
        usanw_dataset,
        num_queries=QUERIES_PER_SETTING,
        num_keywords=USANW_DEFAULTS["keywords"],
        delta=USANW_DEFAULTS["delta"],
        area_km2=USANW_DEFAULTS["area_km2"],
        seed=11,
    )


def workloads_for_axis(
    dataset: SyntheticDataset,
    axis: str,
    values: Sequence[float],
    defaults: Dict[str, float],
    seed: int,
) -> List[Tuple[float, list]]:
    """Build one workload per x-axis value, varying a single query argument."""
    settings: List[Tuple[float, list]] = []
    for index, value in enumerate(values):
        keywords = int(defaults["keywords"])
        delta = defaults["delta"]
        area = defaults["area_km2"]
        if axis == "keywords":
            keywords = int(value)
        elif axis == "delta_km_paper":
            delta = paper_km_to_bench_meters(value)
        elif axis == "lambda_km2_paper":
            area = paper_km2_to_bench_km2(value)
        else:
            raise ValueError(f"unknown axis {axis!r}")
        workload = generate_workload(
            dataset,
            num_queries=QUERIES_PER_SETTING,
            num_keywords=keywords,
            delta=delta,
            area_km2=area,
            seed=seed + index,
        )
        settings.append((float(value), workload))
    return settings
