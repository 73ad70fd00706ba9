"""Mutable world: delta overlay, compaction and generation-swapped serving.

The contract under test (see ``docs/ARCHITECTURE.md`` § Mutable world &
generations): after a compaction, a frozen-world query against generation N+1
is **byte-identical** to a cold rebuild of the mutated dataset — same regions,
same order, bit-equal weights and lengths — for every solver and its
dict-loop reference twin and every scoring mode. Before compaction, overlay
serving merges the pending mutations into node weights at query time; for
mutations that leave the collection statistics untouched (rating changes,
coordinate moves) the overlay answers are additionally byte-identical to the
post-compaction ones.

This is the mutation analogue of the solver-backend, pruning and sharding
parity suites.
"""

from __future__ import annotations

import dataclasses
import math
import random
import threading

import pytest

from repro.core.reference import twin
from repro.core.result import TopKResult
from repro.datasets.ny import build_ny_like
from repro.engine import LCMSREngine
from repro.exceptions import ArtifactError, DatasetError
from repro.network.subgraph import Rectangle
from repro.objects.corpus import ObjectCorpus
from repro.objects.geoobject import GeoTextualObject
from repro.objects.mapping import nearest_node
from repro.service.bundle import IndexBundle
from repro.service.generations import (
    CURRENT_NAME,
    DELTA_LOG_NAME,
    Compactor,
    DeltaOverlay,
    append_delta_ops,
    apply_op,
    apply_ops,
    clear_delta_log,
    generation_dirs,
    next_generation_name,
    overlay_from_delta_log,
    read_delta_log,
    resolve_generation,
    set_current_generation,
    write_delta_log,
)
from repro.service.query_service import QueryRequest, QueryService
from repro.textindex.relevance import ScoringMode

SEED = 11
SOLVERS = ("app", "tgen", "greedy")
BACKENDS = ("dict", "dense")


def _build_dataset():
    return build_ny_like(rows=8, cols=8, block_size=120.0, num_objects=140,
                         num_clusters=5, seed=SEED)


@pytest.fixture(scope="module")
def dataset():
    return _build_dataset()


@pytest.fixture(scope="module")
def base_bundles(dataset):
    """One frozen base bundle per scoring mode."""
    return {
        mode: IndexBundle.build(dataset.network, dataset.corpus,
                                scoring_mode=mode)
        for mode in ScoringMode
    }


def _signature(result):
    if isinstance(result, TopKResult):
        return tuple((r.region.nodes, r.region.edges, r.weight, r.length)
                     for r in result)
    return (result.region.nodes, result.region.edges, result.weight, result.length)


def _vocab(corpus):
    return [term for term, _ in corpus.most_frequent_terms(8)]


def _mutation_script(corpus, rng, stats_preserving=False):
    """A randomized mutation script over ``corpus``.

    Returns the delta-log op list. With ``stats_preserving`` the script only
    changes ratings and coordinates (term df / |D| untouched), the envelope in
    which overlay serving is provably byte-identical to the compacted world.
    """
    vocab = _vocab(corpus)
    ids = sorted(corpus.object_ids())
    touched = rng.sample(ids, 8)
    ops = []
    for object_id in touched[:3]:
        ops.append({"op": "rate", "id": object_id,
                    "rating": round(rng.uniform(0.5, 5.0), 2)})
    for object_id in touched[3:5]:
        obj = corpus.get(object_id)
        # Coordinate move: same keyword frequencies, new location.
        ops.append({"op": "update", "id": object_id,
                    "x": obj.x + rng.uniform(-150.0, 150.0),
                    "y": obj.y + rng.uniform(-150.0, 150.0),
                    "keywords": dict(obj.keywords), "rating": obj.rating})
    if not stats_preserving:
        for object_id in touched[5:7]:
            ops.append({"op": "remove", "id": object_id})
        for offset in range(3):
            terms = rng.sample(vocab, 2) + [rng.choice(vocab)]
            ops.append({"op": "add", "id": 90000 + offset,
                        "x": rng.uniform(100.0, 700.0),
                        "y": rng.uniform(100.0, 700.0),
                        "keywords": terms,
                        "rating": round(rng.uniform(0.5, 5.0), 2)})
        # Re-mutate an already-touched object: the overlay must keep its
        # first-insertion position (dict semantics) for order parity.
        ops.append({"op": "rate", "id": touched[0], "rating": 2.25})
    return ops


def _expected_corpus(base_corpus, ops):
    """Apply ``ops`` independently of DeltaOverlay, in its documented order.

    Canonical mutated order: surviving base objects in base order (skipping
    every id with an overlay entry), then overlay entries in first-touch
    order.
    """
    entries = {}

    def current(object_id):
        if object_id in entries:
            obj = entries[object_id]
            if obj is None:
                raise AssertionError(f"script touches removed id {object_id}")
            return obj
        return base_corpus.get(object_id)

    for op in ops:
        object_id = int(op["id"])
        if op["op"] == "rate":
            obj = dataclasses.replace(current(object_id), rating=float(op["rating"]))
        elif op["op"] in ("add", "update"):
            keywords = op["keywords"]
            if isinstance(keywords, dict):
                obj = GeoTextualObject(object_id, float(op["x"]), float(op["y"]),
                                       dict(keywords), float(op.get("rating", 1.0)))
            else:
                obj = GeoTextualObject.create(object_id, op["x"], op["y"],
                                              keywords, float(op.get("rating", 1.0)))
        else:
            obj = None
        entries[object_id] = obj  # dict keeps the first-touch position
    corpus = ObjectCorpus()
    for obj in base_corpus:
        if obj.object_id in entries:
            continue
        corpus.add(obj)
    for object_id, obj in entries.items():
        if obj is not None:
            corpus.add(obj)
    return corpus


def _queries(dataset):
    min_x, min_y, max_x, max_y = dataset.network.bounding_box()
    width, height = max_x - min_x, max_y - min_y
    vocab = _vocab(dataset.corpus)
    small = Rectangle.from_center(min_x + 0.4 * width, min_y + 0.4 * height, 300, 300)
    wide = Rectangle.from_center(min_x + 0.5 * width, min_y + 0.5 * height, 600, 600)
    return [
        (vocab[:2], 500.0, None),
        (vocab[1:4], 600.0, wide),
        (vocab[:3], 400.0, small),
    ], small


# ------------------------------------------------------------- mutation parity
@pytest.mark.parametrize("mode", list(ScoringMode))
def test_post_compaction_byte_identical_to_cold_rebuild(dataset, base_bundles, mode):
    """The tentpole contract: generation N+1 == cold rebuild of the mutated set."""
    rng = random.Random(SEED + 100)
    ops = _mutation_script(dataset.corpus, rng)
    engine = LCMSREngine.from_bundle(base_bundles[mode])
    overlay = DeltaOverlay(engine.bundle)
    apply_ops(overlay, ops)
    engine.attach_overlay(overlay)
    Compactor(engine).compact()

    cold_bundle = IndexBundle.build(
        dataset.network, _expected_corpus(dataset.corpus, ops),
        scoring_mode=mode,
    )
    cold = LCMSREngine.from_bundle(cold_bundle)

    queries, small = _queries(dataset)
    for keywords, delta, region in queries:
        for name in SOLVERS:
            assert _signature(engine.query(keywords, delta=delta, region=region,
                                           algorithm=name)) == \
                _signature(cold.query(keywords, delta=delta, region=region,
                                      algorithm=name)), (mode, name, keywords)
            assert _signature(engine.query_topk(keywords, delta=delta, k=3,
                                                region=region, algorithm=name)) == \
                _signature(cold.query_topk(keywords, delta=delta, k=3,
                                           region=region, algorithm=name))
    # Exact on a tiny window only (exponential solver).
    keywords, delta, _ = queries[0]
    assert _signature(engine.query(keywords, delta=300.0, region=small,
                                   algorithm="exact")) == \
        _signature(cold.query(keywords, delta=300.0, region=small,
                              algorithm="exact"))


@pytest.mark.parametrize("mode", list(ScoringMode))
@pytest.mark.parametrize("backend", BACKENDS)
def test_post_compaction_parity_across_solver_backends(dataset, base_bundles,
                                                       mode, backend):
    rng = random.Random(SEED + 200)
    ops = _mutation_script(dataset.corpus, rng)
    engine = LCMSREngine.from_bundle(base_bundles[mode])
    overlay = DeltaOverlay(engine.bundle)
    apply_ops(overlay, ops)
    engine.attach_overlay(overlay)
    Compactor(engine).compact()
    cold = LCMSREngine.from_bundle(IndexBundle.build(
        dataset.network, _expected_corpus(dataset.corpus, ops),
        scoring_mode=mode,
    ))
    queries, _ = _queries(dataset)
    from repro.core.query import LCMSRQuery

    for keywords, delta, region in queries:
        query = LCMSRQuery.create(keywords, delta=delta, region=region)
        hot = engine.build_instance(query)
        ref = cold.build_instance(query)
        for name in SOLVERS:
            # "dict" runs each solver's reference twin, "dense" the solver.
            hot_solver, cold_solver = engine.solver(name), cold.solver(name)
            if backend == "dict":
                hot_solver, cold_solver = twin(hot_solver), twin(cold_solver)
            assert _signature(hot_solver.solve(hot)) == \
                _signature(cold_solver.solve(ref))


@pytest.mark.parametrize("mode", list(ScoringMode))
def test_overlay_serving_matches_compacted_for_stats_preserving_script(
        dataset, base_bundles, mode):
    """Rating changes and coordinate moves: overlay answers == generation N+1."""
    rng = random.Random(SEED + 300)
    ops = _mutation_script(dataset.corpus, rng, stats_preserving=True)
    engine = LCMSREngine.from_bundle(base_bundles[mode])
    overlay = DeltaOverlay(engine.bundle)
    apply_ops(overlay, ops)
    engine.attach_overlay(overlay)

    queries, _ = _queries(dataset)
    before = [
        _signature(engine.query(keywords, delta=delta, region=region, algorithm=name))
        for keywords, delta, region in queries for name in SOLVERS
    ]
    Compactor(engine).compact()
    after = [
        _signature(engine.query(keywords, delta=delta, region=region, algorithm=name))
        for keywords, delta, region in queries for name in SOLVERS
    ]
    assert before == after


def test_overlay_serving_merges_full_script_in_rating_mode(dataset, base_bundles):
    """In rating mode the overlay is exact for the *full* script (adds/removes
    included): object scores don't depend on collection statistics."""
    rng = random.Random(SEED + 400)
    ops = _mutation_script(dataset.corpus, rng)
    engine = LCMSREngine.from_bundle(base_bundles[ScoringMode.RATING_IF_MATCH])
    overlay = DeltaOverlay(engine.bundle)
    apply_ops(overlay, ops)
    engine.attach_overlay(overlay)
    queries, _ = _queries(dataset)
    before = [
        _signature(engine.query(keywords, delta=delta, region=region, algorithm=name))
        for keywords, delta, region in queries for name in SOLVERS
    ]
    Compactor(engine).compact()
    after = [
        _signature(engine.query(keywords, delta=delta, region=region, algorithm=name))
        for keywords, delta, region in queries for name in SOLVERS
    ]
    assert before == after


def test_overlay_object_in_base_empty_window_is_found(dataset, base_bundles):
    """The zero-mass window skip must not hide overlay-only objects."""
    engine = LCMSREngine.from_bundle(base_bundles[ScoringMode.RATING_IF_MATCH])
    min_x, min_y, max_x, max_y = dataset.network.bounding_box()
    window = Rectangle(min_x - 300.0, min_y - 300.0, min_x + 60.0, min_y + 60.0)
    empty = engine.query(["zzz-nowhere"], delta=400.0, region=window)
    assert empty.is_empty
    overlay = DeltaOverlay(engine.bundle)
    overlay.add_object(GeoTextualObject.create(
        91000, min_x + 10.0, min_y + 10.0, ["zzz-nowhere"], rating=2.0))
    engine.attach_overlay(overlay)
    found = engine.query(["zzz-nowhere"], delta=400.0, region=window)
    assert not found.is_empty
    assert found.weight == pytest.approx(2.0)


# ------------------------------------------------------ weight-level parity
def _weight_reads(dataset):
    """``(window, node_window)`` pairs: no window, then windows inside,
    straddling and outside the network, each with ``node_window`` equal to the
    window or ``None``."""
    min_x, min_y, max_x, max_y = dataset.network.bounding_box()
    inside = Rectangle(min_x + 150.0, min_y + 150.0, min_x + 550.0, min_y + 550.0)
    straddling = Rectangle(max_x - 300.0, min_y - 300.0, max_x + 300.0, max_y + 300.0)
    outside = Rectangle(max_x + 50.0, min_y - 500.0, max_x + 600.0, max_y + 500.0)
    reads = [(None, None)]
    for window in (inside, straddling, outside):
        reads += [(window, window), (window, None)]
    return reads


def _crowding_ops(dataset, bundle, ops):
    """Coordinate moves of base objects the script leaves alone: two onto one
    node that keeps surviving base rows, one just outside the network."""
    mapping = bundle.mapping
    touched = {op["id"] for op in ops}
    node = max(mapping.nodes_with_objects(), key=lambda n: len(mapping.objects_at(n)))
    movers = [oid for oid in sorted(dataset.corpus.object_ids())
              if oid not in touched and mapping.node_of(oid) != node][:3]
    assert set(mapping.objects_at(node)) - touched, "the node keeps base rows"
    node_x, node_y = dataset.network.coords(node)
    min_x, min_y, max_x, max_y = dataset.network.bounding_box()
    targets = [(node_x + 0.5, node_y + 0.5), (node_x - 0.5, node_y + 0.25),
               (max_x + 200.0, (min_y + max_y) / 2.0)]
    for x, y in targets[:2]:
        assert nearest_node(dataset.network, x, y) == node
    crowding = []
    for object_id, (x, y) in zip(movers, targets):
        obj = dataset.corpus.get(object_id)
        crowding.append({"op": "update", "id": object_id, "x": x, "y": y,
                         "keywords": dict(obj.keywords), "rating": obj.rating})
    return crowding


def _assert_weights_match_cold(dataset, overlay, ops, mode, keyword_sets, reads):
    cold = IndexBundle.build(
        dataset.network, _expected_corpus(dataset.corpus, ops), scoring_mode=mode,
    ).weight_pipeline()
    for keywords in keyword_sets:
        for window, node_window in reads:
            merged = overlay.node_weights(keywords, window, node_window)
            rebuilt = cold.node_weights(keywords, window=window, node_window=node_window)
            # Keys, their order and the float bits.
            assert list(merged.items()) == list(rebuilt.items()), \
                (keywords, window, node_window)


@pytest.mark.parametrize("mode, stats_preserving", [
    *[(mode, True) for mode in ScoringMode],
    (ScoringMode.RATING_IF_MATCH, False),
])
def test_overlay_weights_equal_cold_rebuild_weights(dataset, base_bundles, mode,
                                                    stats_preserving):
    """Every merged read equals the cold rebuild's ``node_weights`` dict."""
    vocab = _vocab(dataset.corpus)
    for seed in range(SEED + 600, SEED + 606):
        ops = _mutation_script(dataset.corpus, random.Random(seed), stats_preserving)
        ops += _crowding_ops(dataset, base_bundles[mode], ops)
        overlay = DeltaOverlay(base_bundles[mode])
        apply_ops(overlay, ops)
        _assert_weights_match_cold(dataset, overlay, ops, mode,
                                   [vocab[:2], vocab[1:4], vocab[4:5]],
                                   _weight_reads(dataset))


def test_far_add_weights_equal_cold_rebuild_weights(dataset, base_bundles):
    """An add 4 km from the centre lands on the node the rebuild maps it to."""
    min_x, min_y, max_x, max_y = dataset.network.bounding_box()
    bearing = math.radians(50.0)
    x = (min_x + max_x) / 2.0 + 4000.0 * math.cos(bearing)
    y = (min_y + max_y) / 2.0 + 4000.0 * math.sin(bearing)
    keywords = _vocab(dataset.corpus)[:1]
    ops = [{"op": "add", "id": 90100, "x": x, "y": y, "keywords": keywords,
            "rating": 2.0}]
    mode = ScoringMode.RATING_IF_MATCH
    overlay = DeltaOverlay(base_bundles[mode])
    apply_ops(overlay, ops)
    far = Rectangle(x - 10.0, y - 10.0, x + 10.0, y + 10.0)
    assert nearest_node(dataset.network, x, y) in overlay.node_weights(keywords, far)
    _assert_weights_match_cold(dataset, overlay, ops, mode, [keywords],
                               _weight_reads(dataset) + [(far, None)])


class TestNonFiniteMutations:
    """A NaN or infinite coordinate or rating is rejected before it is recorded."""

    @pytest.mark.parametrize("op", [
        {"op": "add", "id": 90001, "x": math.nan, "y": 300.0, "keywords": ["cafe"]},
        {"op": "add", "id": 90001, "x": 300.0, "y": math.inf, "keywords": ["cafe"]},
        {"op": "add", "id": 90001, "x": 300.0, "y": 300.0, "keywords": ["cafe"],
         "rating": math.nan},
        {"op": "update", "x": math.nan, "y": 300.0, "keywords": ["cafe"]},
        {"op": "update", "x": 300.0, "y": -math.inf, "keywords": ["cafe"]},
        {"op": "rate", "rating": math.nan},
        {"op": "rate", "rating": math.inf},
    ])
    def test_rejected_and_overlay_unchanged(self, dataset, base_bundles, op):
        base_id = sorted(dataset.corpus.object_ids())[0]
        overlay = DeltaOverlay(base_bundles[ScoringMode.RATING_IF_MATCH])
        apply_op(overlay, {"op": "rate", "id": base_id, "rating": 2.0})
        keywords = _vocab(dataset.corpus)[:2]
        before = list(overlay.node_weights(keywords).items())
        with pytest.raises(DatasetError, match="non-finite"):
            apply_op(overlay, {"id": base_id, **op})
        assert (overlay.pending_count, overlay.version) == (1, 1)
        assert list(overlay.node_weights(keywords).items()) == before


# ------------------------------------------------------------ overlay contract
class TestOverlayValidation:
    @pytest.fixture()
    def overlay(self, base_bundles):
        return DeltaOverlay(base_bundles[ScoringMode.TEXT_RELEVANCE])

    def test_add_existing_id_rejected(self, overlay, dataset):
        existing = next(iter(dataset.corpus))
        with pytest.raises(DatasetError, match="live in the merged view"):
            overlay.add_object(existing)

    def test_update_unknown_id_rejected(self, overlay):
        with pytest.raises(DatasetError, match="unknown"):
            overlay.update_object(GeoTextualObject.create(87654, 1.0, 1.0, ["x"]))

    def test_remove_unknown_id_rejected(self, overlay):
        with pytest.raises(DatasetError, match="unknown"):
            overlay.remove_object(87654)

    def test_rate_unknown_id_rejected(self, overlay):
        with pytest.raises(DatasetError, match="unknown"):
            overlay.set_rating(87654, 3.0)

    def test_frozen_overlay_rejects_mutations(self, overlay, dataset):
        overlay.set_rating(next(iter(dataset.corpus)).object_id, 3.0)
        overlay.freeze()
        with pytest.raises(DatasetError, match="frozen"):
            overlay.remove_object(next(iter(dataset.corpus)).object_id)
        overlay.unfreeze()
        overlay.set_rating(next(iter(dataset.corpus)).object_id, 2.0)

    def test_remove_then_read_is_unknown(self, overlay, dataset):
        victim = next(iter(dataset.corpus)).object_id
        overlay.remove_object(victim)
        assert not overlay.is_live(victim)
        with pytest.raises(DatasetError, match="unknown"):
            overlay.get(victim)

    def test_version_counts_mutations(self, overlay, dataset):
        assert overlay.version == 0 and not overlay.has_pending
        overlay.set_rating(next(iter(dataset.corpus)).object_id, 3.0)
        assert overlay.version == 1 and overlay.has_pending
        assert overlay.pending_count == 1

    def test_compact_without_pending_rejected(self, base_bundles):
        engine = LCMSREngine.from_bundle(base_bundles[ScoringMode.TEXT_RELEVANCE])
        with pytest.raises(DatasetError, match="nothing to compact"):
            Compactor(engine).compact()


# ----------------------------------------------------------- delta log on disk
class TestDeltaLog:
    def test_roundtrip_append_clear(self, tmp_path):
        assert read_delta_log(tmp_path) == []
        ops = [{"op": "rate", "id": 1, "rating": 2.0}]
        write_delta_log(tmp_path, ops)
        assert read_delta_log(tmp_path) == ops
        total = append_delta_ops(tmp_path, [{"op": "remove", "id": 2}])
        assert total == 2
        assert [op["op"] for op in read_delta_log(tmp_path)] == ["rate", "remove"]
        clear_delta_log(tmp_path)
        assert read_delta_log(tmp_path) == []
        assert not (tmp_path / DELTA_LOG_NAME).exists()

    def test_malformed_log_rejected_with_recovery_hint(self, tmp_path):
        (tmp_path / DELTA_LOG_NAME).write_text("{not json", encoding="utf-8")
        with pytest.raises(ArtifactError, match="delete the file"):
            read_delta_log(tmp_path)

    def test_unknown_op_kind_rejected(self, base_bundles):
        overlay = DeltaOverlay(base_bundles[ScoringMode.TEXT_RELEVANCE])
        with pytest.raises(ArtifactError, match="unknown mutation op"):
            apply_ops(overlay, [{"op": "teleport", "id": 1}])

    def test_overlay_from_empty_log_is_none(self, base_bundles, tmp_path):
        assert overlay_from_delta_log(
            base_bundles[ScoringMode.TEXT_RELEVANCE], tmp_path) is None


# --------------------------------------------------------- end-to-end, on disk
def test_disk_mutate_compact_serves_cold_equivalent(dataset, base_bundles, tmp_path):
    root = tmp_path / "artifact"
    bundle = base_bundles[ScoringMode.TEXT_RELEVANCE]
    bundle.save(root)
    rng = random.Random(SEED + 500)
    ops = _mutation_script(dataset.corpus, rng)
    append_delta_ops(root, ops)

    # Overlay serving straight from the artifact root.
    live = LCMSREngine.from_artifact(root)
    assert live.overlay is not None and live.overlay.has_pending
    queries, _ = _queries(dataset)
    keywords, delta, region = queries[1]
    live.query(keywords, delta=delta, region=region)  # overlay path exercises

    report = Compactor(live, root=root).compact()
    assert report.generation == "gen-0001"
    assert (root / "gen-0001" / "manifest.json").is_file()
    assert (root / CURRENT_NAME).read_text(encoding="utf-8").strip() == "gen-0001"
    assert read_delta_log(root) == []
    assert live.overlay is None  # swap dropped the overlay
    assert live.bundle_generation == 1

    # A fresh process (from_artifact) now serves the new generation, and it is
    # byte-identical to a cold rebuild of the mutated corpus.
    fresh = LCMSREngine.from_artifact(root)
    assert fresh.overlay is None
    cold = LCMSREngine.from_bundle(IndexBundle.build(
        dataset.network, _expected_corpus(dataset.corpus, ops),
        scoring_mode=ScoringMode.TEXT_RELEVANCE,
    ))
    for keywords, delta, region in queries:
        for name in SOLVERS:
            assert _signature(fresh.query(keywords, delta=delta, region=region,
                                          algorithm=name)) == \
                _signature(cold.query(keywords, delta=delta, region=region,
                                      algorithm=name))
    # The swapped live engine agrees with the fresh load.
    assert _signature(live.query(keywords, delta=delta, region=region)) == \
        _signature(fresh.query(keywords, delta=delta, region=region))


def test_second_compaction_gets_next_generation_number(dataset, base_bundles,
                                                       tmp_path):
    root = tmp_path / "artifact"
    base_bundles[ScoringMode.RATING_IF_MATCH].save(root)
    some_id = next(iter(dataset.corpus)).object_id
    append_delta_ops(root, [{"op": "rate", "id": some_id, "rating": 4.0}])
    engine = LCMSREngine.from_artifact(root)
    assert Compactor(engine, root=root).compact().generation == "gen-0001"
    append_delta_ops(root, [{"op": "rate", "id": some_id, "rating": 1.5}])
    engine = LCMSREngine.from_artifact(root)
    assert engine.overlay is not None
    report = Compactor(engine, root=root).compact()
    assert report.generation == "gen-0002"
    assert resolve_generation(root) == root / "gen-0002"


# ------------------------------------------------------------ generation store
class TestGenerationStore:
    def test_resolve_without_pointer_is_root(self, tmp_path):
        assert resolve_generation(tmp_path) == tmp_path

    def test_next_generation_name_never_reuses(self, tmp_path):
        assert next_generation_name(tmp_path) == "gen-0001"
        (tmp_path / "gen-0007").mkdir()
        assert next_generation_name(tmp_path) == "gen-0008"

    def test_partial_generation_ignored_with_warning(self, tmp_path):
        partial = tmp_path / "gen-0001"
        partial.mkdir()
        (partial / "scoring.npz").write_bytes(b"half-written")
        with pytest.warns(UserWarning, match="partially-written"):
            dirs = generation_dirs(tmp_path)
        assert dirs == []
        with pytest.warns(UserWarning, match="mid-compaction"):
            assert resolve_generation(tmp_path) == tmp_path

    def test_dangling_current_pointer_rejected_with_recovery(self, tmp_path):
        (tmp_path / CURRENT_NAME).write_text("gen-0003\n", encoding="utf-8")
        with pytest.raises(ArtifactError, match="compact"):
            resolve_generation(tmp_path)

    def test_current_pointer_with_invalid_name_rejected(self, tmp_path):
        (tmp_path / CURRENT_NAME).write_text("../escape\n", encoding="utf-8")
        with pytest.raises(ArtifactError):
            resolve_generation(tmp_path)

    def test_set_current_requires_manifest(self, tmp_path):
        (tmp_path / "gen-0001").mkdir()
        with pytest.raises(ArtifactError, match="refusing"):
            set_current_generation(tmp_path, "gen-0001")


# ----------------------------------------------- cache identity and staleness
def test_services_over_different_artifacts_never_cross_pollinate(base_bundles):
    """Regression: cache keys must carry the bundle identity."""
    other = build_ny_like(rows=8, cols=8, block_size=120.0, num_objects=140,
                          num_clusters=5, seed=SEED + 1)
    engine_a = LCMSREngine.from_bundle(base_bundles[ScoringMode.TEXT_RELEVANCE])
    engine_b = LCMSREngine.from_bundle(IndexBundle.build(
        other.network, other.corpus, scoring_mode=ScoringMode.TEXT_RELEVANCE))
    assert engine_a.bundle_cache_key != engine_b.bundle_cache_key

    # A mutation + compaction of the second world keeps the keys apart too
    # (fingerprint and generation both move).
    overlay = DeltaOverlay(engine_b.bundle)
    some = next(iter(engine_b.corpus))
    overlay.set_rating(some.object_id, 4.9)
    engine_b.attach_overlay(overlay)
    Compactor(engine_b).compact()
    assert engine_a.bundle_cache_key != engine_b.bundle_cache_key

    vocab = _vocab(engine_a.corpus)
    request = QueryRequest.create(vocab[:2], delta=500.0)
    with QueryService(engine_a, max_workers=2) as service_a, \
            QueryService(engine_b, max_workers=2) as service_b:
        service_a.run_batch([request])
        service_b.run_batch([request])
        keys_a = set(service_a._result_cache.keys())
        keys_b = set(service_b._result_cache.keys())
        assert keys_a and keys_b and not (keys_a & keys_b)
        assert {key.bundle_key for key in keys_a} == {engine_a.bundle_cache_key}
        assert {key.bundle_key for key in keys_b} == {engine_b.bundle_cache_key}


# --------------------------------------------------- sharded serving + swaps
def _mutate_and_compact(root, dataset):
    some_id = next(iter(dataset.corpus)).object_id
    append_delta_ops(root, [{"op": "rate", "id": some_id, "rating": 4.2}])
    engine = LCMSREngine.from_artifact(root)
    return Compactor(engine, root=root).compact()


def test_compaction_mirrors_shard_set_onto_new_generation(dataset, base_bundles,
                                                          tmp_path):
    from repro.service.sharding import build_shards, load_shard_set

    root = tmp_path / "artifact"
    bundle = base_bundles[ScoringMode.RATING_IF_MATCH]
    manifest = bundle.save(root)
    build_shards(bundle, root, num_shards=2, halo_margin=500.0,
                 base_fingerprint=manifest.fingerprint)
    report = _mutate_and_compact(root, dataset)
    assert report.resharded
    shard_set = load_shard_set(root / "gen-0001")
    assert shard_set is not None and shard_set.num_shards == 2
    assert shard_set.halo_margin == 500.0


def test_stale_shard_set_against_new_generation_rejected(dataset, base_bundles,
                                                         tmp_path):
    import shutil

    from repro.service.sharding import (
        SHARD_SET_NAME,
        SHARDS_DIRNAME,
        build_shards,
        load_shard_set,
    )

    root = tmp_path / "artifact"
    bundle = base_bundles[ScoringMode.RATING_IF_MATCH]
    manifest = bundle.save(root)
    build_shards(bundle, root, num_shards=2, halo_margin=500.0,
                 base_fingerprint=manifest.fingerprint)
    _mutate_and_compact(root, dataset)
    generation = root / "gen-0001"
    # Simulate an operator copying the *base* shard set over the new
    # generation's: its recorded base fingerprint no longer matches.
    shutil.copy2(root / SHARDS_DIRNAME / SHARD_SET_NAME,
                 generation / SHARDS_DIRNAME / SHARD_SET_NAME)
    with pytest.raises(ArtifactError, match="stale shard set.*rebuild"):
        load_shard_set(generation)


def test_sharded_service_refresh_swaps_generation(dataset, base_bundles, tmp_path):
    from repro.service.sharding import ShardedQueryService, build_shards

    root = tmp_path / "artifact"
    bundle = base_bundles[ScoringMode.RATING_IF_MATCH]
    manifest = bundle.save(root)
    build_shards(bundle, root, num_shards=2, halo_margin=500.0,
                 base_fingerprint=manifest.fingerprint)
    vocab = _vocab(dataset.corpus)
    request = QueryRequest.create(vocab[:2], delta=450.0)
    with ShardedQueryService(root, num_workers=2) as service:
        assert service.served_path == root
        service.run_batch([request])  # pre-swap serving, warms the old pool
        _mutate_and_compact(root, dataset)
        assert service.refresh() is True
        assert service.served_path == root / "gen-0001"
        assert service.refresh() is False  # already serving CURRENT
        after = service.run_batch([request])[0]
        expected = LCMSREngine.from_artifact(root).query(
            request.keywords, delta=request.delta, region=request.region)
        assert _signature(after) == _signature(expected)


def test_generation_swap_invalidates_service_caches(dataset, base_bundles):
    """A swap retires every cache entry keyed to the old generation."""
    engine = LCMSREngine.from_bundle(base_bundles[ScoringMode.TEXT_RELEVANCE])
    vocab = _vocab(dataset.corpus)
    requests = [QueryRequest.create(vocab[i:i + 2], delta=500.0) for i in range(4)]
    with QueryService(engine, max_workers=2) as service:
        service.run_batch(requests)
        old_key = engine.bundle_cache_key
        assert {k.bundle_key for k in service._result_cache.keys()} == {old_key}

        overlay = DeltaOverlay(engine.bundle)
        overlay.set_rating(next(iter(dataset.corpus)).object_id, 3.3)
        engine.attach_overlay(overlay)
        Compactor(engine).compact()
        new_key = engine.bundle_cache_key
        assert new_key != old_key

        service.run_batch(requests[:1])
        result_keys = set(service._result_cache.keys())
        instance_keys = set(service._instance_cache.keys())
        assert result_keys and {k.bundle_key for k in result_keys} == {new_key}
        assert {k.bundle_key for k in instance_keys} <= {new_key}


def test_concurrent_queries_during_generation_swap(dataset, base_bundles):
    """Hammer a service through a swap: nothing stale survives the dust."""
    engine = LCMSREngine.from_bundle(base_bundles[ScoringMode.RATING_IF_MATCH])
    vocab = _vocab(dataset.corpus)
    overlay = DeltaOverlay(engine.bundle)
    victim = next(iter(dataset.corpus))
    overlay.set_rating(victim.object_id, 4.7)
    engine.attach_overlay(overlay)
    compactor = Compactor(engine)

    requests = [QueryRequest.create(vocab[i % 4:i % 4 + 2], delta=450.0)
                for i in range(8)]
    errors = []
    started = threading.Barrier(5)

    with QueryService(engine, max_workers=4) as service:
        def hammer():
            try:
                started.wait(timeout=10)
                for _ in range(6):
                    service.run_batch(requests)
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        started.wait(timeout=10)
        report = compactor.compact()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert report.mutations == 1

        # One post-swap query; afterwards every surviving cache entry must be
        # keyed to the new generation — no entry from generation N remains.
        service.run_batch(requests[:1])
        new_key = engine.bundle_cache_key
        assert ":g1:" in new_key
        for key in service._result_cache.keys():
            assert key.bundle_key == new_key
        for key in service._instance_cache.keys():
            assert key.bundle_key == new_key

        # And the served answers reflect the compacted world.
        expected_engine = LCMSREngine.from_bundle(engine.bundle)
        for request in requests[:3]:
            got = service.submit(request).result(timeout=30)
            want = expected_engine.query(request.keywords, delta=request.delta,
                                         region=request.region)
            assert _signature(got) == _signature(want)
