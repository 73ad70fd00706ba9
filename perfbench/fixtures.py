"""Fixture artifacts and query pools, built once per checkout and cached on disk.

A fixture is a persisted index artifact plus the query pool the workload draws
from. Its cache directory is keyed by the workload, the dataset seed and a hash
of every ``src/repro/**/*.py`` file (and of this file), so two commits never
share an artifact and a format change always rebuilds. Building a fixture is
not part of any reported set-up time.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import List

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CACHE = ROOT / ".perfbench_cache"


@dataclass(frozen=True)
class Dataset:
    """A NY-like synthetic dataset (see ``repro.datasets.ny``)."""

    rows: int
    cols: int
    objects: int
    clusters: int
    seed: int = 42
    block: float = 120.0


@dataclass(frozen=True)
class Fixture:
    """What one workload serves: a dataset, its query pool and an optional shard set.

    ``query_sample`` thins the corpus the query generator draws keywords from
    (every n-th object): the generator scans the corpus once per candidate
    window, which at 200,000 objects would dominate the fixture build.
    """

    dataset: Dataset
    pool_size: int
    area_km2: float
    delta: float = 2000.0
    keywords: int = 3
    pool_seed: int = 7
    shards: int = 0
    query_sample: int = 1


NY = Dataset(rows=42, cols=42, objects=6000, clusters=28)
NY_200K = Dataset(rows=100, cols=100, objects=200_000, clusters=120)

# Paper defaults (Section 7.2) at the benchmark scale: 3 keywords,
# ∆ = 10 km × 0.2 = 2 km and Λ = 100 km² × 0.2² = 4 km².
FIXTURES = {
    "tgen-paper": Fixture(NY, pool_size=8, area_km2=4.0),
    "greedy-200k": Fixture(NY_200K, pool_size=300, area_km2=16.0, query_sample=10),
    "serve-rw": Fixture(NY, pool_size=300, area_km2=4.0),
    "gateway-greedy": Fixture(NY, pool_size=300, area_km2=4.0, shards=2),
}


def source_hash() -> str:
    """Hash of the package sources and of this fixture recipe."""
    sha = hashlib.sha256()
    files = sorted((SRC / "repro").rglob("*.py")) + [Path(__file__).resolve()]
    for path in files:
        sha.update(str(path.relative_to(ROOT)).encode("utf-8"))
        sha.update(path.read_bytes())
    return sha.hexdigest()[:16]


def fixture_dir(workload: str) -> Path:
    spec = FIXTURES[workload]
    return CACHE / f"{workload}-d{spec.dataset.seed}-{source_hash()}"


def _build_dataset(spec: Dataset, out: Path):
    """Build the dataset's index bundle, save it to ``out`` and return it."""
    from repro import IndexBundle, build_ny_like
    from repro.datasets.ny import ny_like_parts

    if spec.objects <= 20_000:
        dataset = build_ny_like(rows=spec.rows, cols=spec.cols, block_size=spec.block,
                                num_objects=spec.objects, num_clusters=spec.clusters,
                                seed=spec.seed)
        bundle = IndexBundle.from_dataset(dataset)
    else:
        network, objects = ny_like_parts(rows=spec.rows, cols=spec.cols,
                                         block_size=spec.block, num_objects=spec.objects,
                                         num_clusters=spec.clusters, seed=spec.seed)
        bundle = IndexBundle.build_streaming(network, objects)
    bundle.save(out)
    return bundle


def _query_pool(bundle, spec: Fixture) -> List[dict]:
    from repro.datasets.queries import QueryWorkloadGenerator, WorkloadSpec
    from repro.network.subgraph import Rectangle
    from repro.objects.corpus import ObjectCorpus

    network = bundle.road_network()
    corpus = bundle.corpus
    if spec.query_sample > 1:
        thinned = ObjectCorpus()
        for index, obj in enumerate(corpus):
            if index % spec.query_sample == 0:
                thinned.add(obj)
        corpus = thinned
    min_x, min_y, max_x, max_y = network.bounding_box()
    view = SimpleNamespace(network=network, corpus=corpus,
                           extent=Rectangle(min_x, min_y, max_x, max_y))
    queries = QueryWorkloadGenerator(view).generate(
        WorkloadSpec(num_queries=spec.pool_size, num_keywords=spec.keywords,
                     delta=spec.delta, area=spec.area_km2 * 1e6, seed=spec.pool_seed)
    )
    return [
        {
            "keywords": list(q.keywords),
            "delta": q.delta,
            "region": [q.region.min_x, q.region.min_y, q.region.max_x, q.region.max_y],
        }
        for q in queries
    ]


def build(workload: str, target: Path) -> None:
    """Build the fixture of ``workload`` into ``target``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from repro.service import build_shards
    from repro.service.persist import read_manifest

    spec = FIXTURES[workload]
    start = time.perf_counter()
    tmp = target.with_name(target.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    artifact = tmp / "artifact"
    bundle = _build_dataset(spec.dataset, artifact)
    if spec.shards:
        build_shards(bundle, artifact, num_shards=spec.shards, halo_margin=spec.delta,
                     base_fingerprint=read_manifest(artifact).fingerprint)
    pool = _query_pool(bundle, spec)
    seconds = time.perf_counter() - start
    (tmp / "fixture.json").write_text(
        json.dumps({"workload": workload, "queries": pool, "build_s": seconds}),
        encoding="utf-8",
    )
    tmp.rename(target)


def ensure(workload: str) -> None:
    """Build the fixture of ``workload`` unless it is cached.

    Fixtures of the same workload built from other sources are removed.
    """
    target = fixture_dir(workload)
    if target.is_dir():
        return
    if CACHE.is_dir():
        for stale in CACHE.glob(f"{workload}-d*"):
            shutil.rmtree(stale, ignore_errors=True)
    build(workload, target)


if __name__ == "__main__":
    ensure(sys.argv[1])
