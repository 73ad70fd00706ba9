"""On-disk index-bundle artifacts: round trips, integrity checks, determinism.

Covers the guarantees :mod:`repro.service.persist` documents:

* save → load → query equality with the in-memory bundle (all solvers, top-k,
  NY-style and USANW-style datasets),
* manifest enforcement — unsupported format versions and checksum mismatches
  (corruption) are rejected with :class:`ArtifactError`,
* the memory-mapped CSR arrays come back read-only,
* two same-seed builds produce byte-identical artifacts (the determinism
  regression test for the dataset generators and the serialisation layer),
* the fingerprint-keyed artifact cache used by the evaluation runner.
"""

from __future__ import annotations

import json
import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.datasets.ny import build_ny_like
from repro.datasets.usanw import build_usanw_like
from repro.engine import LCMSREngine
from repro.evaluation.runner import ExperimentRunner
from repro.exceptions import ArtifactError
from repro.network.subgraph import Rectangle
from repro.objects.corpus import ObjectCorpus
from repro.service import (
    FORMAT_VERSION,
    IndexBundle,
    QueryRequest,
    QueryService,
    cached_dataset_bundle,
    dataset_fingerprint,
    read_manifest,
    verify_artifact,
)
from repro.service.persist import (
    INDEX_NAME,
    MANIFEST_NAME,
    NETWORK_NAME,
    SCORING_NAME,
    VOCABULARY_NAME,
)
from repro.textindex.relevance import ScoringMode


def _tiny_dataset(seed: int = 3):
    return build_ny_like(rows=12, cols=12, block_size=120.0, num_objects=220,
                         num_clusters=5, seed=seed)


def _assert_same_result(result_a, result_b):
    assert result_a.region.nodes == result_b.region.nodes
    assert result_a.region.edges == result_b.region.edges
    assert result_a.length == pytest.approx(result_b.length, abs=1e-12)
    assert result_a.weight == pytest.approx(result_b.weight, abs=1e-12)


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    """One saved artifact (plus its source bundle) shared by the read-only tests."""
    dataset = _tiny_dataset()
    bundle = IndexBundle.from_dataset(dataset)
    path = tmp_path_factory.mktemp("artifacts") / "tiny-ny"
    bundle.save(path)
    return path, bundle


class TestRoundTrip:
    def test_loaded_bundle_answers_identically_for_all_solvers(self, artifact):
        path, bundle = artifact
        built_engine = LCMSREngine.from_bundle(bundle)
        loaded_engine = LCMSREngine.from_artifact(path)
        small_window = Rectangle(100.0, 100.0, 430.0, 430.0)
        for algorithm, kwargs in [
            ("app", {}),
            ("tgen", {}),
            ("greedy", {}),
            ("exact", {"region": small_window}),
        ]:
            built = built_engine.query(
                ["cafe", "restaurant"], delta=700.0, algorithm=algorithm, **kwargs
            )
            loaded = loaded_engine.query(
                ["cafe", "restaurant"], delta=700.0, algorithm=algorithm, **kwargs
            )
            _assert_same_result(built, loaded)

    def test_topk_round_trip(self, artifact):
        path, bundle = artifact
        built = LCMSREngine.from_bundle(bundle).query_topk(
            ["cafe"], delta=600.0, k=3, algorithm="tgen"
        )
        loaded = LCMSREngine.from_artifact(path).query_topk(
            ["cafe"], delta=600.0, k=3, algorithm="tgen"
        )
        assert len(built.results) == len(loaded.results)
        for result_b, result_l in zip(built.results, loaded.results):
            _assert_same_result(result_b, result_l)

    def test_usanw_style_round_trip(self, tmp_path):
        dataset = build_usanw_like(num_nodes=180, extent=5000.0, num_objects=180,
                                   num_clusters=4, seed=5)
        bundle = IndexBundle.from_dataset(dataset)
        bundle.save(tmp_path / "usanw")
        loaded = IndexBundle.load(tmp_path / "usanw")
        built_engine = LCMSREngine.from_bundle(bundle)
        loaded_engine = LCMSREngine.from_bundle(loaded)
        keywords = ["sunset", "beach"]
        for algorithm in ("app", "tgen", "greedy"):
            _assert_same_result(
                built_engine.query(keywords, delta=1200.0, algorithm=algorithm),
                loaded_engine.query(keywords, delta=1200.0, algorithm=algorithm),
            )

    def test_eager_load_matches_mmap_load(self, artifact):
        path, _ = artifact
        eager = IndexBundle.load(path, mmap=False)
        mapped = IndexBundle.load(path, mmap=True)
        result_e = LCMSREngine.from_bundle(eager).query(["bar"], delta=500.0)
        result_m = LCMSREngine.from_bundle(mapped).query(["bar"], delta=500.0)
        _assert_same_result(result_e, result_m)

    def test_query_service_accepts_artifact_path(self, artifact):
        path, bundle = artifact
        reference = LCMSREngine.from_bundle(bundle).query(["cafe"], delta=600.0)
        with QueryService(path, max_workers=2) as service:
            [result] = service.run_batch([QueryRequest.create(["cafe"], delta=600.0)])
        _assert_same_result(reference, result)

    def test_runner_from_loaded_bundle_matches_direct_runner(self, artifact):
        path, bundle = artifact
        from repro.core.query import LCMSRQuery
        from repro.core.tgen import TGENSolver

        query = LCMSRQuery.create(["cafe"], delta=800.0)
        direct = ExperimentRunner.from_bundle(bundle)
        loaded = ExperimentRunner.from_bundle(IndexBundle.load(path))
        _assert_same_result(
            direct.run_single(query, TGENSolver()).result,
            loaded.run_single(query, TGENSolver()).result,
        )


class TestIntegrity:
    def test_missing_artifact_raises(self, tmp_path):
        with pytest.raises(ArtifactError, match="manifest"):
            IndexBundle.load(tmp_path / "nowhere")

    def test_format_version_mismatch_is_rejected(self, tmp_path):
        bundle = IndexBundle.from_dataset(_tiny_dataset(seed=8))
        path = tmp_path / "versioned"
        bundle.save(path)
        manifest_path = path / MANIFEST_NAME
        raw = json.loads(manifest_path.read_text())
        raw["format_version"] = FORMAT_VERSION + 1
        manifest_path.write_text(json.dumps(raw))
        with pytest.raises(ArtifactError, match="format version"):
            IndexBundle.load(path)

    def test_pre_bump_artifact_is_rejected_with_a_rebuild_hint(self, tmp_path):
        # Format version 7 shrank index.pkl to the corpus alone and dropped
        # four bound columns; a version-6 index.pkl unpickles to a
        # (corpus, mapping) tuple, so the loader must reject it outright and
        # tell the operator how to get a current one.
        bundle = IndexBundle.from_dataset(_tiny_dataset(seed=8))
        path = tmp_path / "pre-bump"
        bundle.save(path)
        manifest_path = path / MANIFEST_NAME
        raw = json.loads(manifest_path.read_text())
        raw["format_version"] = FORMAT_VERSION - 1
        manifest_path.write_text(json.dumps(raw))
        with pytest.raises(ArtifactError, match="rebuild the artifact"):
            IndexBundle.load(path)
        with pytest.raises(ArtifactError, match="python -m repro build"):
            read_manifest(path)

    @pytest.mark.parametrize("victim", [NETWORK_NAME, SCORING_NAME, INDEX_NAME])
    def test_corruption_is_rejected_by_checksums(self, tmp_path, victim):
        bundle = IndexBundle.from_dataset(_tiny_dataset(seed=8))
        path = tmp_path / "corrupt"
        bundle.save(path)
        target = path / victim
        blob = bytearray(target.read_bytes())
        blob[len(blob) // 2] ^= 0xFF  # flip one byte in the middle
        target.write_bytes(bytes(blob))
        with pytest.raises(ArtifactError, match="checksum mismatch"):
            IndexBundle.load(path)
        with pytest.raises(ArtifactError, match="checksum mismatch"):
            verify_artifact(path)

    def test_vocabulary_scoring_mismatch_raises_artifact_error(self, tmp_path):
        bundle = IndexBundle.from_dataset(_tiny_dataset(seed=8))
        path = tmp_path / "mismatched-vocabulary"
        bundle.save(path)
        vocabulary_path = path / VOCABULARY_NAME
        terms = json.loads(vocabulary_path.read_text())
        vocabulary_path.write_text(json.dumps(terms[:-1]))
        with pytest.raises(ArtifactError, match="does not match"):
            IndexBundle.load(path, verify=False)

    def test_unknown_manifest_scoring_mode_raises_artifact_error(self, tmp_path):
        bundle = IndexBundle.from_dataset(_tiny_dataset(seed=8))
        path = tmp_path / "bogus-mode"
        bundle.save(path)
        manifest_path = path / MANIFEST_NAME
        raw = json.loads(manifest_path.read_text())
        raw["scoring_mode"] = "bogus"
        manifest_path.write_text(json.dumps(raw))
        with pytest.raises(ArtifactError, match="unknown scoring mode"):
            IndexBundle.load(path)

    def test_manifest_without_scoring_mode_is_malformed(self, tmp_path):
        bundle = IndexBundle.from_dataset(_tiny_dataset(seed=8))
        path = tmp_path / "no-mode"
        bundle.save(path)
        manifest_path = path / MANIFEST_NAME
        raw = json.loads(manifest_path.read_text())
        del raw["scoring_mode"]
        manifest_path.write_text(json.dumps(raw))
        with pytest.raises(ArtifactError, match="malformed artifact manifest"):
            IndexBundle.load(path)

    @pytest.mark.parametrize("mode", list(ScoringMode))
    def test_scoring_mode_is_read_from_the_manifest(self, tmp_path, mode):
        dataset = _tiny_dataset(seed=8)
        bundle = IndexBundle.build(dataset.network, dataset.corpus, scoring_mode=mode)
        path = tmp_path / mode.value
        bundle.save(path)
        assert read_manifest(path).scoring_mode == mode.value
        loaded = IndexBundle.load(path)
        assert loaded.scoring_mode is mode
        assert loaded.weight_pipeline().mode is mode
        keywords = ["cafe", "restaurant"]
        assert list(loaded.weight_pipeline().node_weights(keywords).items()) == \
            list(bundle.weight_pipeline().node_weights(keywords).items())

    def test_grid_resolution_leaves_the_artifact_unchanged(self, tmp_path):
        dataset = _tiny_dataset(seed=8)
        for resolution in (4, 48):
            IndexBundle.build(dataset.network, dataset.corpus,
                              grid_resolution=resolution).save(tmp_path / str(resolution))
        assert "grid_resolution" not in json.loads(
            (tmp_path / "4" / MANIFEST_NAME).read_text()
        )
        files = sorted(p.name for p in (tmp_path / "48").iterdir())
        assert files == sorted(p.name for p in (tmp_path / "4").iterdir())
        for name in files:
            assert (tmp_path / "4" / name).read_bytes() == \
                (tmp_path / "48" / name).read_bytes(), name

    def test_index_pickle_holds_only_the_corpus(self, artifact):
        path, bundle = artifact
        corpus = pickle.loads((path / INDEX_NAME).read_bytes())
        assert isinstance(corpus, ObjectCorpus)
        assert [obj.object_id for obj in corpus] == \
            [obj.object_id for obj in bundle.corpus]
        # The mapping is not pickled: the loaded bundle reads it off scoring.npz.
        loaded = IndexBundle.load(path)
        assert loaded.mapping.node_to_objects == bundle.mapping.node_to_objects
        assert loaded.mapping.object_to_node == bundle.mapping.object_to_node

    def test_format_6_index_pickle_is_rejected_without_verify(self, tmp_path):
        # A format-6 index.pkl held a (corpus, mapping) tuple. Behind a
        # current manifest (checksums skipped) it must fail with an
        # ArtifactError naming the file, not unpack into a broken bundle.
        # The corpus is unpickled on first access, so that is where it fails.
        bundle = IndexBundle.from_dataset(_tiny_dataset(seed=8))
        path = tmp_path / "v6-pickle"
        bundle.save(path)
        (path / INDEX_NAME).write_bytes(
            pickle.dumps((bundle.corpus, bundle.mapping), protocol=4)
        )
        loaded = IndexBundle.load(path, verify=False)
        with pytest.raises(ArtifactError, match=INDEX_NAME):
            loaded.corpus

    @pytest.mark.parametrize(
        "name", [NETWORK_NAME, SCORING_NAME, INDEX_NAME, VOCABULARY_NAME]
    )
    def test_verify_requires_every_payload_checksum(self, tmp_path, name):
        # A manifest that lists no checksum for a payload file must not let
        # that file through unchecked.
        bundle = IndexBundle.from_dataset(_tiny_dataset(seed=8))
        path = tmp_path / "unlisted"
        bundle.save(path)
        manifest_path = path / MANIFEST_NAME
        raw = json.loads(manifest_path.read_text())
        del raw["checksums"][name]
        manifest_path.write_text(json.dumps(raw))
        with pytest.raises(ArtifactError, match=f"no checksum for {name}"):
            verify_artifact(path)
        with pytest.raises(ArtifactError, match=f"no checksum for {name}"):
            IndexBundle.load(path)

    def test_corrupt_npz_raises_artifact_error_even_without_verify(self, tmp_path):
        bundle = IndexBundle.from_dataset(_tiny_dataset(seed=8))
        path = tmp_path / "trusted-corrupt"
        bundle.save(path)
        (path / NETWORK_NAME).write_bytes(b"not a zip file at all")
        with pytest.raises(ArtifactError, match=NETWORK_NAME):
            IndexBundle.load(path, verify=False)

    def test_resaving_a_mmap_loaded_bundle_over_itself_is_safe(self, tmp_path):
        # The writer must not truncate files that the loaded bundle's memmaps
        # still point at (payloads are written to temp siblings and renamed).
        bundle = IndexBundle.from_dataset(_tiny_dataset(seed=9))
        path = tmp_path / "self-resave"
        bundle.save(path)
        loaded = IndexBundle.load(path)  # mmap-backed
        loaded.save(path, overwrite=True)
        reference = LCMSREngine.from_bundle(bundle).query(["cafe"], delta=600.0)
        # The original mapping still reads correctly AND the artifact reloads.
        _assert_same_result(
            reference, LCMSREngine.from_bundle(loaded).query(["cafe"], delta=600.0)
        )
        _assert_same_result(
            reference, LCMSREngine.from_artifact(path).query(["cafe"], delta=600.0)
        )
        assert not list(path.glob("*.tmp"))

    def test_duplicate_node_ids_are_rejected_at_construction(self):
        import numpy as np

        from repro.exceptions import GraphError
        from repro.network.compact import CompactNetwork

        with pytest.raises(GraphError, match="duplicate node ids"):
            CompactNetwork(
                np.array([1, 1], dtype=np.int64),
                np.zeros(2), np.zeros(2),
                np.array([0, 0, 0], dtype=np.int32),
                np.array([], dtype=np.int32),
                np.array([], dtype=np.float64),
            )

    def test_save_refuses_to_overwrite_without_flag(self, artifact):
        path, bundle = artifact
        with pytest.raises(ArtifactError, match="already exists"):
            bundle.save(path)
        # With the flag it succeeds (and the artifact stays loadable).
        bundle.save(path, overwrite=True)
        assert verify_artifact(path).fingerprint == read_manifest(path).fingerprint


class TestMmapSemantics:
    def test_mmap_loaded_arrays_are_read_only(self, artifact):
        path, _ = artifact
        loaded = IndexBundle.load(path)
        ids, xs, ys = loaded.compact.csr_node_arrays()
        indptr, indices, lengths = loaded.compact.csr_index_arrays()
        for array in (ids, xs, ys, indptr, indices, lengths):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = array[0]

    def test_bound_columns_load_as_read_only_memmaps(self, artifact):
        # The four bound-aggregate columns ride in scoring.npz and must come
        # back as read-only memmaps like every other persisted array — and
        # still drive a working UpperBoundIndex.
        path, _ = artifact
        index = IndexBundle.load(path).weight_pipeline().index
        for name in ("bound_meta", "obj_cell", "cell_sigma_mass", "cell_node_mass"):
            array = getattr(index, name)
            assert not array.flags.writeable, name
            with pytest.raises(ValueError):
                array.reshape(-1)[:1] = 0
        from repro.core.bounds import UpperBoundIndex

        bounds = UpperBoundIndex.from_columnar(index, "text_relevance")
        window = Rectangle(0.0, 0.0, 1e6, 1e6)
        assert bounds.window_mass_bound(window) > 0.0

    def test_loaded_bundle_thaws_road_network_on_demand(self, artifact):
        path, bundle = artifact
        loaded = IndexBundle.load(path)
        assert loaded.network is None
        thawed = loaded.road_network()
        assert thawed.num_nodes == bundle.network.num_nodes
        assert thawed.num_edges == bundle.network.num_edges
        assert loaded.network is thawed  # cached


class TestDeterminism:
    def test_same_seed_builds_produce_byte_identical_artifacts(self, tmp_path):
        paths = []
        for index in range(2):
            dataset = _tiny_dataset(seed=21)
            bundle = IndexBundle.from_dataset(dataset)
            path = tmp_path / f"build-{index}"
            bundle.save(path)
            paths.append(path)
        first, second = paths
        files = sorted(p.name for p in first.iterdir())
        assert files == sorted(p.name for p in second.iterdir())
        for name in files:
            assert (first / name).read_bytes() == (second / name).read_bytes(), (
                f"{name} differs between two same-seed builds"
            )

    def test_different_seeds_produce_different_fingerprints(self):
        dataset_a = _tiny_dataset(seed=21)
        dataset_b = _tiny_dataset(seed=22)
        assert dataset_fingerprint(dataset_a.network, dataset_a.corpus) != \
            dataset_fingerprint(dataset_b.network, dataset_b.corpus)


class TestArtifactCache:
    def test_runner_cache_saves_then_reloads(self, tmp_path):
        dataset = _tiny_dataset(seed=30)
        cache = tmp_path / "cache"
        runner_first = ExperimentRunner(dataset, artifact_cache_dir=cache)
        [artifact_dir] = list(cache.iterdir())
        manifest = read_manifest(artifact_dir)
        assert manifest.fingerprint == dataset_fingerprint(dataset.network, dataset.corpus)

        runner_second = ExperimentRunner(dataset, artifact_cache_dir=cache)
        # The second runner's bundle came from disk: no dict network attached.
        assert runner_second.bundle.network is None

        from repro.core.query import LCMSRQuery
        from repro.core.greedy import GreedySolver

        query = LCMSRQuery.create(["cafe"], delta=700.0)
        _assert_same_result(
            runner_first.run_single(query, GreedySolver()).result,
            runner_second.run_single(query, GreedySolver()).result,
        )

    def test_stale_cache_entry_is_rebuilt(self, tmp_path):
        dataset = _tiny_dataset(seed=31)
        cache = tmp_path / "cache"
        bundle = cached_dataset_bundle(dataset, cache)
        [artifact_dir] = list(cache.iterdir())
        # Sabotage the stored fingerprint: the cache must treat it as stale.
        manifest_path = artifact_dir / MANIFEST_NAME
        raw = json.loads(manifest_path.read_text())
        raw["fingerprint"] = "0" * 64
        manifest_path.write_text(json.dumps(raw))
        rebuilt = cached_dataset_bundle(dataset, cache)
        assert rebuilt.network is not None  # fresh build, not a load
        assert read_manifest(artifact_dir).fingerprint == \
            dataset_fingerprint(dataset.network, dataset.corpus)
        assert bundle.describe().split(",")[0] == rebuilt.describe().split(",")[0]
