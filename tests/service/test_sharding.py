"""Sharded serving: partitioner, router, gateway and byte-identity parity.

The contract under test (see ``docs/ARCHITECTURE.md`` § Sharded serving): a
query dispatched to any shard whose extent contains its window answers
**byte-identically** to the unsharded artifact — same regions, same order,
bit-equal weights and lengths — for every solver, every scoring mode and every
shard count. The parity suite here is the sharding analogue of the solver
backend and pruning parity suites.
"""

from __future__ import annotations

import json
import pickle
import shutil
import threading
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.core.region import Region
from repro.core.result import RegionResult, TopKResult
from repro.datasets.ny import build_ny_like
from repro.engine import LCMSREngine
from repro.exceptions import ArtifactError, QueryError
from repro.network.subgraph import Rectangle
from repro.service import sharding
from repro.service.bundle import IndexBundle
from repro.service.generations import set_current_generation
from repro.service.keys import ResultKey
from repro.service.persist import INDEX_NAME, read_manifest, verify_artifact
from repro.service.query_service import QueryRequest, QueryService
from repro.service.sharding import (
    SHARD_SET_NAME,
    SHARDS_DIRNAME,
    ShardedQueryService,
    ShardInfo,
    ShardRouter,
    ShardSetManifest,
    WorkerConfig,
    build_shards,
    load_shard_set,
)
from repro.service.stats import QueryTiming
from repro.textindex.relevance import ScoringMode

SEED = 3
SHARD_COUNTS = (1, 2, 4)
HALO = 700.0
SOLVERS = ("app", "tgen", "greedy")


def _build_dataset():
    return build_ny_like(rows=12, cols=12, block_size=120.0, num_objects=260,
                         num_clusters=5, seed=SEED)


@pytest.fixture(scope="module")
def dataset():
    return _build_dataset()


@pytest.fixture(scope="module")
def sharded_artifacts(dataset, tmp_path_factory):
    """One artifact per (scoring mode, shard count), with shards built."""
    root = tmp_path_factory.mktemp("sharded")
    artifacts = {}
    for mode in ScoringMode:
        bundle = IndexBundle.build(dataset.network, dataset.corpus,
                                   scoring_mode=mode)
        for num_shards in SHARD_COUNTS:
            path = root / f"{mode.value}-k{num_shards}"
            bundle.save(path)
            build_shards(bundle, path, num_shards=num_shards, halo_margin=HALO)
            artifacts[(mode, num_shards)] = path
    return artifacts


@pytest.fixture(scope="module")
def parity_queries(dataset):
    """Windows chosen against the tile geometry: interior, straddling, halo."""
    min_x, min_y, max_x, max_y = dataset.network.bounding_box()
    width, height = max_x - min_x, max_y - min_y
    keywords_pool = [t for t, _ in dataset.corpus.most_frequent_terms(6)]
    queries = []
    # Window well inside one tile (every K).
    queries.append((keywords_pool[:3], 500.0,
                    Rectangle.from_center(min_x + 0.25 * width,
                                          min_y + 0.25 * height, 500, 500)))
    # Window straddling the K=2 and K=4 tile boundaries (centered on the bbox
    # center, where all tiles meet) — contained in several extents via halo.
    queries.append((keywords_pool[1:4], 600.0,
                    Rectangle.from_center(min_x + 0.5 * width,
                                          min_y + 0.5 * height, 600, 600)))
    # Window entirely inside the halo band of the neighbouring shard: its
    # center sits just across the vertical K=2 boundary, the whole window
    # within HALO of it.
    queries.append((keywords_pool[2:5], 400.0,
                    Rectangle.from_center(min_x + 0.5 * width + 200,
                                          min_y + 0.4 * height, 350, 350)))
    # Whole-network query (routes to a covers_all shard or the base).
    queries.append((keywords_pool[:2], 700.0, None))
    return queries


def _signature(result):
    if isinstance(result, TopKResult):
        return tuple((r.region.nodes, r.region.edges, r.weight, r.length)
                     for r in result)
    return (result.region.nodes, result.region.edges, result.weight, result.length)


# ---------------------------------------------------------------- parity suite
def test_sharded_answers_byte_identical(sharded_artifacts, parity_queries):
    """Every solver x mode x K: shard answers == unsharded answers, bit for bit."""
    for (mode, num_shards), path in sharded_artifacts.items():
        full = QueryService(LCMSREngine.from_artifact(path), max_workers=1)
        shard_set = load_shard_set(path)
        router = ShardRouter(shard_set)
        shard_services = {}
        for keywords, delta, region in parity_queries:
            for algorithm in SOLVERS:
                for k in (1, 3):
                    request = QueryRequest.create(
                        keywords, delta=delta, region=region,
                        algorithm=algorithm, k=k,
                    )
                    expected = _signature(full.execute(request))
                    route = router.route(region)
                    # EVERY shard whose extent contains the window must agree
                    # with the base artifact, not just the owner.
                    targets = route.candidates if route.candidates else (-1,)
                    for part in targets:
                        if part < 0:
                            continue  # base fallback IS the reference
                        service = shard_services.get(part)
                        if service is None:
                            shard_dir = path / SHARDS_DIRNAME / f"shard-{part:02d}"
                            service = QueryService(
                                LCMSREngine.from_artifact(shard_dir),
                                max_workers=1,
                            )
                            shard_services[part] = service
                        got = _signature(service.execute(request))
                        assert got == expected, (
                            f"{mode.value} K={num_shards} shard {part} "
                            f"{algorithm} k={k} region={region}"
                        )


def test_straddling_window_contained_by_multiple_extents(sharded_artifacts):
    """The straddling window really exercises the halo: >= 2 candidate shards."""
    path = sharded_artifacts[(ScoringMode.TEXT_RELEVANCE, 4)]
    shard_set = load_shard_set(path)
    bbox = Rectangle(*shard_set.bbox)
    center_window = Rectangle.from_center(
        (bbox.min_x + bbox.max_x) / 2, (bbox.min_y + bbox.max_y) / 2, 600, 600
    )
    route = ShardRouter(shard_set).route(center_window)
    assert len(route.candidates) >= 2
    # The owner (the tile holding the window center) is dispatched first.
    owner_tile = Rectangle(*shard_set.shards[route.shard].tile)
    assert owner_tile.contains(*center_window.center())


def test_shard_roundtrip_through_bundle_load(sharded_artifacts):
    """Each shard is a complete artifact: checksum-verified load succeeds."""
    path = sharded_artifacts[(ScoringMode.TEXT_RELEVANCE, 2)]
    shard_set = load_shard_set(path)
    for info in shard_set.shards:
        shard_dir = path / SHARDS_DIRNAME / info.name
        manifest = verify_artifact(shard_dir)
        assert manifest.fingerprint == info.fingerprint
        assert manifest.shard["part"] == info.part
        bundle = IndexBundle.load(shard_dir, verify=True)
        assert len(bundle.corpus) > 0
        assert bundle.columnar is not None
        # Global statistics survive the subset: shard IDF == corpus-global IDF.
        assert bundle.columnar.global_num_objects == 260


@pytest.mark.parametrize("mode", list(ScoringMode))
def test_shard_payload_is_the_extent_corpus_and_mapping(sharded_artifacts, dataset,
                                                        mode):
    """Shards carry their own objects only, and the base's scoring mode."""
    path = sharded_artifacts[(mode, 4)]
    for info in load_shard_set(path).shards:
        shard_dir = path / SHARDS_DIRNAME / info.name
        assert read_manifest(shard_dir).scoring_mode == mode.value
        corpus = pickle.loads((shard_dir / INDEX_NAME).read_bytes())
        bundle = IndexBundle.load(shard_dir)
        mapping = bundle.mapping
        kept = bundle.columnar.object_ids.tolist()
        assert [obj.object_id for obj in corpus] == kept
        assert sorted(mapping.object_to_node) == sorted(kept)
        assert kept
        assert all(obj == dataset.corpus.get(obj.object_id) for obj in corpus)
        assert all(mapping.node_of(object_id) == dataset.mapping.node_of(object_id)
                   for object_id in kept)
        assert bundle.scoring_mode is mode


def test_shard_set_manifest_roundtrip(sharded_artifacts):
    path = sharded_artifacts[(ScoringMode.TEXT_RELEVANCE, 4)]
    shard_set = load_shard_set(path)
    again = ShardSetManifest.from_json(shard_set.to_json())
    assert again == shard_set
    assert again.tiles == (2, 2)
    assert again.num_shards == 4


# ---------------------------------------------------------------- staleness
def test_stale_base_fingerprint_rejected(sharded_artifacts, tmp_path):
    source = sharded_artifacts[(ScoringMode.TEXT_RELEVANCE, 2)]
    path = tmp_path / "stale"
    shutil.copytree(source, path)
    set_path = path / SHARDS_DIRNAME / SHARD_SET_NAME
    raw = json.loads(set_path.read_text())
    raw["base_fingerprint"] = "0" * 64
    set_path.write_text(json.dumps(raw))
    with pytest.raises(ArtifactError, match="stale shard set.*--shards 2"):
        load_shard_set(path)
    with pytest.raises(ArtifactError, match="stale shard set"):
        ShardedQueryService(path, num_workers=1)


def test_missing_shard_rejected(sharded_artifacts, tmp_path):
    source = sharded_artifacts[(ScoringMode.TEXT_RELEVANCE, 2)]
    path = tmp_path / "missing"
    shutil.copytree(source, path)
    shutil.rmtree(path / SHARDS_DIRNAME / "shard-01")
    with pytest.raises(ArtifactError, match="shard-01 is missing"):
        load_shard_set(path)


def test_foreign_shard_rejected(sharded_artifacts, tmp_path):
    """A shard partitioned from a different base artifact is refused."""
    source = sharded_artifacts[(ScoringMode.TEXT_RELEVANCE, 2)]
    path = tmp_path / "foreign"
    shutil.copytree(source, path)
    shard_manifest = path / SHARDS_DIRNAME / "shard-00" / "manifest.json"
    raw = json.loads(shard_manifest.read_text())
    raw["shard"]["base_fingerprint"] = "f" * 64
    shard_manifest.write_text(json.dumps(raw))
    with pytest.raises(ArtifactError, match="shard-00.*base fingerprint mismatch"):
        load_shard_set(path)


def test_no_shard_set_is_not_an_error(dataset, tmp_path):
    bundle = IndexBundle.build(dataset.network, dataset.corpus)
    bundle.save(tmp_path / "plain")
    assert load_shard_set(tmp_path / "plain") is None


def test_existing_shard_set_requires_overwrite(sharded_artifacts, dataset):
    path = sharded_artifacts[(ScoringMode.TEXT_RELEVANCE, 1)]
    bundle = IndexBundle.build(dataset.network, dataset.corpus)
    with pytest.raises(ArtifactError, match="shard set already exists"):
        build_shards(bundle, path, num_shards=1, halo_margin=HALO)


def test_empty_tile_rejected_with_actionable_error(dataset, tmp_path):
    """A shard count so high that some halo-expanded tile holds no objects."""
    bundle = IndexBundle.build(dataset.network, dataset.corpus)
    bundle.save(tmp_path / "art")
    with pytest.raises(ArtifactError, match="no objects.*fewer shards"):
        build_shards(bundle, tmp_path / "art", num_shards=256, halo_margin=0.0)


# ---------------------------------------------------------------- router units
def _manifest_two_tiles():
    return ShardSetManifest(
        base_fingerprint="a" * 64,
        halo_margin=100.0,
        tiles=(2, 1),
        bbox=(0.0, 0.0, 2000.0, 1000.0),
        shards=(
            ShardInfo("shard-00", 0, (0.0, 0.0, 1000.0, 1000.0),
                      (-100.0, -100.0, 1100.0, 1100.0), "s0", False),
            ShardInfo("shard-01", 1, (1000.0, 0.0, 2000.0, 1000.0),
                      (900.0, -100.0, 2100.0, 1100.0), "s1", False),
        ),
    )


def test_router_prefers_owning_tile():
    router = ShardRouter(_manifest_two_tiles())
    # Center at x=950 -> owner is tile 0, but both extents contain the window.
    window = Rectangle(920.0, 400.0, 980.0, 460.0)
    route = router.route(window)
    assert route.shard == 0
    assert set(route.candidates) == {0, 1}


def test_router_falls_back_to_base():
    router = ShardRouter(_manifest_two_tiles())
    # Wider than any extent -> no shard can answer it byte-identically.
    assert router.route(Rectangle(0.0, 0.0, 2000.0, 1000.0)).shard == -1
    # region=None with no covers_all shard -> base.
    assert router.route(None).shard == -1
    # No shard set at all -> base.
    assert ShardRouter(None).route(Rectangle(0, 0, 1, 1)).shard == -1


# ---------------------------------------------------------------- gateway
@pytest.fixture(scope="module")
def gateway_artifact(sharded_artifacts):
    return sharded_artifacts[(ScoringMode.TEXT_RELEVANCE, 2)]


def test_sharded_service_batch_parity(gateway_artifact, parity_queries):
    """The process gateway returns exactly what the unsharded service returns."""
    requests = [
        QueryRequest.create(keywords, delta=delta, region=region,
                            algorithm=algorithm, k=k)
        for keywords, delta, region in parity_queries
        for algorithm in ("tgen", "greedy")
        for k in (1, 3)
    ]
    full = QueryService(LCMSREngine.from_artifact(gateway_artifact), max_workers=1)
    expected = [_signature(full.execute(r)) for r in requests]
    with ShardedQueryService(gateway_artifact, num_workers=2) as service:
        got = [_signature(r) for r in service.run_batch(requests)]
        stats = service.stats()
    assert got == expected
    assert stats.queries == len(requests)
    assert stats.total_seconds > 0.0


def test_admission_control_rejects_when_full(gateway_artifact):
    service = ShardedQueryService(gateway_artifact, num_workers=1, max_in_flight=2)
    try:
        # Exhaust the admission slots without involving worker processes.
        assert service._admission.acquire(blocking=False)
        assert service._admission.acquire(blocking=False)
        request = QueryRequest.create(["cafe"], delta=500.0)
        with pytest.raises(QueryError, match="admission queue full"):
            service.submit(request)
        assert service.rejected == 1
        service._admission.release()
        service._admission.release()
        # With slots free again the same submission is accepted and completes.
        assert service.submit(request).result(timeout=120) is not None
    finally:
        service.close()
    with pytest.raises(QueryError, match="closed"):
        service.execute(request)


def _result(nodes, weight, length, algorithm="TGEN"):
    region = Region(nodes=frozenset(nodes),
                    edges=frozenset((a, b) for a, b in zip(nodes, nodes[1:])),
                    length=length, weight=weight)
    return RegionResult(region=region, algorithm=algorithm)


def test_worker_config_and_requests_pickle_roundtrip(gateway_artifact):
    """Everything that crosses the process boundary must pickle cleanly."""
    config = WorkerConfig(base_path=str(gateway_artifact))
    assert pickle.loads(pickle.dumps(config)) == config
    request = QueryRequest.create(
        ["cafe", "bar"], delta=800.0,
        region=Rectangle(0.0, 0.0, 100.0, 100.0), algorithm="tgen", k=3,
    )
    assert pickle.loads(pickle.dumps(request)) == request
    timing = QueryTiming(
        key=ResultKey.create(("cafe",), 800.0, None, 1, "tgen",
                             ScoringMode.TEXT_RELEVANCE),
        algorithm="tgen", result_cache_hit=False, instance_cache_hit=True,
        build_seconds=0.1, solve_seconds=0.2, total_seconds=0.3,
    )
    assert pickle.loads(pickle.dumps(timing)) == timing
    result = _result([1, 2, 3], 4.0, 120.0)
    assert pickle.loads(pickle.dumps(result)) == result
    topk = TopKResult(results=(result,), algorithm="TGEN", runtime_seconds=0.5)
    restored = pickle.loads(pickle.dumps(topk))
    assert restored.results == topk.results
    assert restored.algorithm == topk.algorithm


def test_worker_caches_one_service_per_artifact_directory(gateway_artifact,
                                                          monkeypatch):
    """Workers open the directory each dispatch names, once per directory."""
    monkeypatch.setattr(sharding, "_WORKER_CONFIG", None)
    monkeypatch.setattr(sharding, "_WORKER_SERVICES", {})
    base = str(gateway_artifact)
    sharding._worker_init(WorkerConfig(base_path=base, preload_base=True))
    assert set(sharding._WORKER_SERVICES) == {base}
    shard_set = load_shard_set(gateway_artifact)
    window = Rectangle.from_center(*Rectangle(*shard_set.shards[1].tile).center(),
                                   400, 400)
    route = ShardRouter(shard_set).route(window)
    assert route.shard == 1
    shard_dir = str(gateway_artifact / SHARDS_DIRNAME / shard_set.shards[1].name)
    request = QueryRequest.create(["cafe", "bar"], delta=600.0, region=window,
                                  algorithm="greedy")
    on_shard, first = sharding._worker_execute(shard_dir, request)
    again, second = sharding._worker_execute(shard_dir, request)
    on_base, _ = sharding._worker_execute(base, request)
    assert set(sharding._WORKER_SERVICES) == {base, shard_dir}
    assert not first.result_cache_hit and second.result_cache_hit
    assert not on_shard.is_empty
    assert _signature(on_shard) == _signature(again) == _signature(on_base)


# ---------------------------------------------------------------- refresh races
@pytest.fixture(scope="module")
def race_bundle():
    dataset = build_ny_like(rows=16, cols=16, block_size=120.0, num_objects=600,
                            num_clusters=8, seed=SEED)
    return IndexBundle.build(dataset.network, dataset.corpus)


def _two_generations(bundle, root, reshard_next):
    """A 2-shard base artifact and a same-content ``gen-0001`` beside it.

    ``CURRENT`` is left unset: a gateway opened on ``root`` serves the base
    until the test points ``CURRENT`` at ``gen-0001`` and calls ``refresh``.
    """
    manifest = bundle.save(root)
    build_shards(bundle, root, num_shards=2, halo_margin=300.0,
                 base_fingerprint=manifest.fingerprint)
    bundle.save(root / "gen-0001")
    if reshard_next:
        build_shards(bundle, root / "gen-0001", num_shards=4, halo_margin=100.0,
                     base_fingerprint=manifest.fingerprint)


def _refresh_after_routing_to_shard_1(monkeypatch, service):
    """Swap generations between routing a query to shard 1 and submitting it."""
    route = ShardRouter.route
    swapped = []

    def route_then_refresh(router, region):
        decision = route(router, region)
        if decision.shard == 1 and not swapped:
            swapped.append(service.refresh())
        return decision

    monkeypatch.setattr(ShardRouter, "route", route_then_refresh)
    return swapped


@pytest.mark.parametrize("reshard_next", [False, True],
                         ids=["next-generation-unsharded", "next-generation-4-shards"])
def test_query_routed_before_refresh_runs_on_its_own_generation(
        race_bundle, tmp_path, monkeypatch, reshard_next):
    """A route and the shard directory it names come from one generation."""
    root = tmp_path / "artifact"
    _two_generations(race_bundle, root, reshard_next)
    min_x, min_y, max_x, max_y = race_bundle.compact.bounding_box()
    # Centered in the right-hand tile of the 2-shard base: routes to shard 1.
    window = Rectangle.from_center(min_x + 0.75 * (max_x - min_x),
                                   min_y + 0.5 * (max_y - min_y), 400, 400)
    keywords = [t for t, _ in race_bundle.corpus.most_frequent_terms(2)]
    request = QueryRequest.create(keywords, delta=600.0, region=window,
                                  algorithm="greedy")
    with ShardedQueryService(root, num_workers=1) as service:
        assert service.router.route(window).shard == 1
        set_current_generation(root, "gen-0001")
        swapped = _refresh_after_routing_to_shard_1(monkeypatch, service)
        got = service.execute(request)
        assert swapped == [True]
        assert service.served_path == root / "gen-0001"
    expected = QueryService(LCMSREngine.from_artifact(root), max_workers=1).execute(request)
    assert not expected.is_empty
    assert _signature(got) == _signature(expected)


def test_submit_racing_refresh_is_answered_on_the_routed_generation(
        race_bundle, tmp_path, monkeypatch):
    """A refresh() that lands inside a submit waits for it, then drains it."""
    root = tmp_path / "artifact"
    race_bundle.save(root)
    race_bundle.save(root / "gen-0001")
    keywords = [t for t, _ in race_bundle.corpus.most_frequent_terms(2)]
    request = QueryRequest.create(keywords, delta=600.0, algorithm="greedy")
    submit = ProcessPoolExecutor.submit
    swapped = []
    racer = threading.Thread(target=lambda: swapped.append(service.refresh()))

    def submit_racing_refresh(pool, *args, **kwargs):
        if racer.ident is None:  # the first submit only
            racer.start()
            # Bounded: with the submit under the pool lock the refresh waits
            # for this submit to return, so the join times out.
            racer.join(timeout=2.0)
        return submit(pool, *args, **kwargs)

    with ShardedQueryService(root, num_workers=1) as service:
        set_current_generation(root, "gen-0001")
        monkeypatch.setattr(ProcessPoolExecutor, "submit", submit_racing_refresh)
        got = service.execute(request)
        monkeypatch.undo()
        racer.join(timeout=120)
        assert not racer.is_alive()
        assert swapped == [True]
        assert service.served_path == root / "gen-0001"
    expected = QueryService(LCMSREngine.from_artifact(root), max_workers=1).execute(request)
    assert not expected.is_empty
    assert _signature(got) == _signature(expected)


def test_base_routed_query_is_served_by_the_served_generation(race_bundle, tmp_path):
    """Workers load the routed directory itself, never the newer ``CURRENT``."""
    root = tmp_path / "artifact"
    race_bundle.save(root)
    other = build_ny_like(rows=16, cols=16, block_size=120.0, num_objects=600,
                          num_clusters=8, seed=SEED + 1)
    IndexBundle.build(other.network, other.corpus).save(root / "gen-0001")
    keywords = [t for t, _ in race_bundle.corpus.most_frequent_terms(2)]
    request = QueryRequest.create(keywords, delta=600.0, algorithm="greedy")
    served = QueryService(LCMSREngine.from_bundle(IndexBundle.load(root)), max_workers=1)
    expected = _signature(served.execute(request))
    with ShardedQueryService(root, num_workers=1) as service:
        # A compaction published gen-0001; until refresh() the gateway still
        # serves the base, and so must a worker that opens it only now.
        set_current_generation(root, "gen-0001")
        got = _signature(service.execute(request))
        assert service.served_path == root
    newer = QueryService(LCMSREngine.from_artifact(root), max_workers=1).execute(request)
    assert _signature(newer) != expected
    assert got == expected


def test_refresh_swaps_the_router_with_the_shard_set(race_bundle, tmp_path):
    """The router is a plain value rebuilt with each generation's shard set."""
    root = tmp_path / "artifact"
    _two_generations(race_bundle, root, reshard_next=True)
    service = ShardedQueryService(root, num_workers=1)
    try:
        old_router = service.router
        assert old_router.manifest is service.shard_set
        assert service.shard_set.num_shards == 2
        set_current_generation(root, "gen-0001")
        assert service.refresh() is True
        new_router = service.router
        assert new_router is not old_router
        assert new_router.manifest is service.shard_set
        assert service.shard_set == load_shard_set(root / "gen-0001")
        assert service.shard_set.num_shards == 4
        assert service.refresh() is False
        assert service.router is new_router
    finally:
        service.close()


def test_refresh_to_a_broken_shard_set_keeps_the_served_generation(race_bundle,
                                                                   tmp_path):
    """A generation that fails validation never replaces the routing state."""
    root = tmp_path / "artifact"
    _two_generations(race_bundle, root, reshard_next=True)
    shutil.rmtree(root / "gen-0001" / SHARDS_DIRNAME / "shard-03")
    service = ShardedQueryService(root, num_workers=1)
    try:
        router = service.router
        set_current_generation(root, "gen-0001")
        with pytest.raises(ArtifactError, match="shard-03 is missing"):
            service.refresh()
        assert service.served_path == root
        assert service.router is router
        assert service.shard_set.num_shards == 2
    finally:
        service.close()
