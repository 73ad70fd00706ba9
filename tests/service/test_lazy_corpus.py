"""The lazy corpus: a loaded artifact unpickles ``index.pkl`` only when read.

The contract under test (see ``docs/ARCHITECTURE.md`` § Loading semantics):

* no read path — the in-process engine, ``QueryService`` under every policy,
  and the gateway's worker functions — ever unpickles the corpus; their
  answers equal the built bundle's,
* the first ``IndexBundle.corpus`` access unpickles once, however many threads
  race to it, and yields the corpus that was saved (raw or compressed),
* the loader reads the inode the load opened, re-checked against the
  manifest: a re-save over the artifact leaves a live bundle's corpus alone,
  and an in-place edit is caught on first access,
* overlay writes other than ``rate``, merged overlay reads in every scoring
  mode and the CLI's frequent-term list read the scoring columns, not the
  corpus.
"""

from __future__ import annotations

import pickle
import sys
import threading

import pytest

from repro import QueryPolicy
from repro.core.result import TopKResult
from repro.datasets.ny import build_ny_like
from repro.engine import LCMSREngine
from repro.exceptions import ArtifactError
from repro.network.subgraph import Rectangle
from repro.service import persist, sharding
from repro.service.bundle import IndexBundle
from repro.service.generations import DeltaOverlay, apply_op
from repro.service.persist import INDEX_NAME
from repro.service.query_service import QueryRequest, QueryService
from repro.service.sharding import SHARDS_DIRNAME, WorkerConfig, build_shards, load_shard_set
from repro.textindex.relevance import ScoringMode

KEYWORDS = ["cafe", "restaurant"]
SMALL_WINDOW = Rectangle(100.0, 100.0, 430.0, 430.0)


def _tiny_dataset(seed: int = 3):
    return build_ny_like(rows=12, cols=12, block_size=120.0, num_objects=220,
                         num_clusters=5, seed=seed)


def _signature(result):
    if isinstance(result, TopKResult):
        return tuple((r.region.nodes, r.region.edges, r.weight, r.length)
                     for r in result)
    return (result.region.nodes, result.region.edges, result.weight, result.length)


def _corpus_rows(corpus):
    return [(obj.object_id, obj.x, obj.y, dict(obj.keywords), obj.rating)
            for obj in corpus]


def _refuse_unpickling(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the corpus was unpickled")

    monkeypatch.setattr(persist.pickle, "loads", refuse)


@pytest.fixture(scope="module")
def dataset():
    return _tiny_dataset()


@pytest.fixture(scope="module")
def artifacts(dataset, tmp_path_factory):
    """One built bundle and its saved artifact per scoring mode."""
    root = tmp_path_factory.mktemp("lazy")
    saved = {}
    for mode in ScoringMode:
        bundle = IndexBundle.build(dataset.network, dataset.corpus, scoring_mode=mode)
        bundle.save(root / mode.value)
        saved[mode] = (root / mode.value, bundle)
    return saved


@pytest.fixture(scope="module")
def sharded(dataset, tmp_path_factory):
    """A text-relevance artifact with a two-shard set."""
    path = tmp_path_factory.mktemp("lazy-sharded") / "ny"
    bundle = IndexBundle.build(dataset.network, dataset.corpus)
    bundle.save(path)
    build_shards(bundle, path, num_shards=2, halo_margin=700.0)
    return path, bundle


# ---------------------------------------------------------------- read paths
@pytest.mark.parametrize("mode", list(ScoringMode))
def test_read_path_never_unpickles_the_corpus(artifacts, mode, monkeypatch):
    path, built = artifacts[mode]
    _refuse_unpickling(monkeypatch)
    loaded_engine = LCMSREngine.from_artifact(path)
    built_engine = LCMSREngine.from_bundle(built)
    for algorithm, kwargs in [
        ("app", {}),
        ("tgen", {}),
        ("greedy", {}),
        ("exact", {"region": SMALL_WINDOW}),
    ]:
        assert _signature(
            loaded_engine.query(KEYWORDS, delta=700.0, algorithm=algorithm, **kwargs)
        ) == _signature(
            built_engine.query(KEYWORDS, delta=700.0, algorithm=algorithm, **kwargs)
        ), algorithm
    assert _signature(
        loaded_engine.query_topk(KEYWORDS, delta=600.0, k=3, algorithm="tgen")
    ) == _signature(built_engine.query_topk(KEYWORDS, delta=600.0, k=3, algorithm="tgen"))

    requests = [
        QueryRequest.create(KEYWORDS, 700.0, algorithm=algorithm, policy=policy)
        for algorithm in ("tgen", "greedy")
        for policy in (None, QueryPolicy.sampled(0.3, seed=5),
                       QueryPolicy.anytime(60_000.0))
    ]
    with QueryService(path, max_workers=1) as service:
        loaded = [_signature(service.execute(r)) for r in requests]
    describe = loaded_engine.bundle.describe()
    with QueryService(built_engine, max_workers=1) as service:
        assert loaded == [_signature(service.execute(r)) for r in requests]
    assert describe.split(", built in")[0] == built.describe().split(", built in")[0]


def test_gateway_worker_never_unpickles_the_corpus(sharded, monkeypatch):
    path, built = sharded
    monkeypatch.setattr(sharding, "_WORKER_CONFIG", None)
    monkeypatch.setattr(sharding, "_WORKER_SERVICES", {})
    _refuse_unpickling(monkeypatch)
    base = str(path)
    shard_set = load_shard_set(path)
    shard_dir = str(path / SHARDS_DIRNAME / shard_set.shards[1].name)
    window = Rectangle.from_center(*Rectangle(*shard_set.shards[1].tile).center(),
                                   400, 400)
    request = QueryRequest.create(KEYWORDS, delta=600.0, region=window,
                                  algorithm="greedy")
    sharding._worker_init(WorkerConfig(base_path=base, preload_base=True))
    on_base, _ = sharding._worker_execute(base, request)
    on_shard, _ = sharding._worker_execute(shard_dir, request)
    expected = LCMSREngine.from_bundle(built).query(
        KEYWORDS, delta=600.0, region=window, algorithm="greedy")
    assert not on_shard.is_empty
    assert _signature(on_shard) == _signature(on_base) == _signature(expected)


# ---------------------------------------------------------------- first access
def test_concurrent_first_readers_unpickle_once(artifacts, monkeypatch):
    path, built = artifacts[ScoringMode.TEXT_RELEVANCE]
    loaded = IndexBundle.load(path)
    calls = []
    real_loads = persist.pickle.loads

    def counting_loads(*args, **kwargs):
        calls.append(threading.get_ident())
        return real_loads(*args, **kwargs)

    monkeypatch.setattr(persist.pickle, "loads", counting_loads)
    readers = 8
    barrier = threading.Barrier(readers)
    seen = [None] * readers

    def read(slot):
        barrier.wait(timeout=30)
        seen[slot] = loaded.corpus

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(slot,)) for slot in range(readers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(calls) == 1
    assert seen[0] is not None
    assert all(corpus is seen[0] for corpus in seen)
    assert _corpus_rows(seen[0]) == _corpus_rows(built.corpus)


@pytest.mark.parametrize("compress", [None, "zlib"])
def test_lazily_loaded_corpus_equals_the_built_one(dataset, tmp_path, compress):
    built = IndexBundle.from_dataset(dataset)
    built.save(tmp_path / "ny", compress=compress)
    loaded = IndexBundle.load(tmp_path / "ny")
    assert _corpus_rows(loaded.corpus) == _corpus_rows(built.corpus)
    # A pickled bundle carries its corpus, loaded or not.
    restored = pickle.loads(pickle.dumps(IndexBundle.load(tmp_path / "ny")))
    assert _corpus_rows(restored.corpus) == _corpus_rows(built.corpus)


def test_resaving_over_a_live_lazy_bundle_keeps_its_corpus(dataset, tmp_path):
    path = tmp_path / "resaved"
    IndexBundle.from_dataset(dataset).save(path)
    live = IndexBundle.load(path)
    other = IndexBundle.from_dataset(_tiny_dataset(seed=4))
    other.save(path, overwrite=True)
    assert _corpus_rows(live.corpus) == _corpus_rows(dataset.corpus)
    assert _corpus_rows(IndexBundle.load(path).corpus) == _corpus_rows(other.corpus)
    assert _corpus_rows(other.corpus) != _corpus_rows(dataset.corpus)


def test_in_place_change_after_a_verified_open_is_caught(dataset, tmp_path):
    path = tmp_path / "edited"
    IndexBundle.from_dataset(dataset).save(path)
    loaded = IndexBundle.load(path)
    # Edit the mapped inode itself: no truncation, no rename.
    with open(path / INDEX_NAME, "r+b") as handle:
        handle.seek(handle.seek(0, 2) // 2)
        byte = handle.read(1)
        handle.seek(-1, 1)
        handle.write(bytes([byte[0] ^ 0xFF]))
    for _ in range(2):  # a failed load fails the same way on every access
        with pytest.raises(ArtifactError, match="checksum mismatch") as excinfo:
            loaded.corpus
        assert INDEX_NAME in str(excinfo.value)


# ---------------------------------------------------------------- column readers
@pytest.mark.parametrize("mode", list(ScoringMode))
def test_overlay_writes_never_unpickle_the_base_corpus(artifacts, monkeypatch, mode):
    path, built = artifacts[mode]
    first, second, third = built.columnar.object_ids[:3].tolist()
    victim = built.corpus.get(second)
    new_id = int(built.columnar.object_ids.max()) + 1
    ops = [
        {"op": "add", "id": new_id, "x": 300.0, "y": 300.0,
         "keywords": ["cafe", "bar"], "rating": 2.5},
        {"op": "update", "id": second, "x": victim.x, "y": victim.y,
         "keywords": ["museum"], "rating": 3.0},
        {"op": "remove", "id": first},
    ]
    _refuse_unpickling(monkeypatch)
    overlay = DeltaOverlay(IndexBundle.load(path))
    for op in ops:
        apply_op(overlay, op)
    assert overlay.is_live(new_id) and overlay.is_live(second)
    assert not overlay.is_live(first)
    merged = [overlay.node_weights(KEYWORDS, window, window)
              for window in (None, SMALL_WINDOW)]
    monkeypatch.undo()
    reference = DeltaOverlay(built)
    for op in ops:
        apply_op(reference, op)
    assert [list(weights.items()) for weights in merged] == [
        list(reference.node_weights(KEYWORDS, window, window).items())
        for window in (None, SMALL_WINDOW)
    ]
    # rate needs the base object's keywords, so it loads the corpus.
    apply_op(overlay, {"op": "rate", "id": third, "rating": 4.5})
    assert overlay.get(third).rating == 4.5
    assert overlay.get(third).keywords == built.corpus.get(third).keywords


def test_column_most_frequent_terms_equal_the_corpus(sharded):
    path, built = sharded
    shard = IndexBundle.load(path / SHARDS_DIRNAME / load_shard_set(path).shards[0].name)
    for bundle in (built, shard):
        vocabulary = bundle.corpus.vocabulary_size()
        for count in (1, 40, vocabulary + 5):
            assert bundle.columnar.most_frequent_terms(count) == \
                bundle.corpus.most_frequent_terms(count), count
