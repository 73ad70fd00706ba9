"""Chunk-compressed artifacts (format v5): parity, integrity, determinism.

Covers the compressed-columnar contracts :mod:`repro.service.persist` and
:mod:`repro.service.chunked` document:

* every scoring / network column decoded from a compressed artifact is
  bit-identical to the raw-memmap artifact's (whole-array, randomized slices,
  randomized gathers, scalar reads), and every operator on a chunked column
  equals the same operator on the decoded array,
* hot columns (CSR offsets, pruning bounds) stay raw memory maps — a
  compressed artifact never pays a decode on the pruning / planning path,
* query results are byte-identical across raw, zlib and lzma artifacts for
  every solver, including through the serving layer's instance cache,
* chunk-level CRC-32 catches corruption that file-level checksum verification
  was asked to skip,
* v4 (uncompressed-era) artifacts are rejected with an actionable rebuild
  hint,
* the streaming build persists the same scoring / network / vocabulary bytes
  as the eager build, and compressed streaming builds are run-to-run
  deterministic.
"""

from __future__ import annotations

import json
import operator
import pickle
import shutil
import zipfile
from pathlib import Path

import numpy as np
import pytest

from repro.datasets.ny import build_ny_like, ny_like_parts
from repro.engine import LCMSREngine
from repro.exceptions import ArtifactError
from repro.network.subgraph import Rectangle
from repro.service import IndexBundle, QueryRequest, QueryService, verify_artifact
from repro.service.chunked import ChunkedColumn, decode_chunk, encode_chunk
from repro.service.persist import (
    INDEX_NAME,
    MANIFEST_NAME,
    NETWORK_NAME,
    SCORING_NAME,
    VOCABULARY_NAME,
    _CHUNK_MEMBER_RE,
    _COMPRESSED_NETWORK_COLUMNS,
    _COMPRESSED_SCORING_COLUMNS,
    _mmap_npz,
    _stored_member_offset,
    compression_spec,
    read_manifest,
)

_OPERATORS = {
    "eq": operator.eq, "ne": operator.ne, "lt": operator.lt, "le": operator.le,
    "gt": operator.gt, "ge": operator.ge, "add": operator.add, "sub": operator.sub,
    "mul": operator.mul, "truediv": operator.truediv, "and": operator.and_,
    "or": operator.or_, "neg": operator.neg, "abs": operator.abs,
    "invert": operator.invert,
}
_UNARY = {"neg", "abs", "invert"}

_DATASET_PARAMS = dict(
    rows=12, cols=12, block_size=120.0, num_objects=260, num_clusters=5, seed=3
)


def _assert_same_result(result_a, result_b):
    assert result_a.region.nodes == result_b.region.nodes
    assert result_a.region.edges == result_b.region.edges
    assert result_a.length == pytest.approx(result_b.length, abs=1e-12)
    assert result_a.weight == pytest.approx(result_b.weight, abs=1e-12)


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """The same bundle saved raw and zlib-compressed, plus the source bundle."""
    dataset = build_ny_like(**_DATASET_PARAMS)
    bundle = IndexBundle.from_dataset(dataset)
    root = tmp_path_factory.mktemp("compressed")
    raw, compressed = root / "raw", root / "zlib"
    bundle.save(raw)
    bundle.save(compressed, compress="zlib")
    return raw, compressed, bundle


# ------------------------------------------------------------- column parity
class TestChunkedColumnParity:
    def test_every_column_bit_identical_and_policy_respected(self, artifacts):
        raw, compressed, _ = artifacts
        for file_name, compressed_set in (
            (SCORING_NAME, _COMPRESSED_SCORING_COLUMNS),
            (NETWORK_NAME, _COMPRESSED_NETWORK_COLUMNS),
        ):
            raw_cols = _mmap_npz(raw / file_name)
            cmp_cols = _mmap_npz(compressed / file_name)
            assert set(raw_cols) == set(cmp_cols)
            chunked_names = set()
            for name in raw_cols:
                reference, candidate = raw_cols[name], cmp_cols[name]
                if isinstance(candidate, ChunkedColumn):
                    chunked_names.add(name)
                    assert name in compressed_set
                    assert candidate.dtype == reference.dtype
                    assert len(candidate) == len(reference)
                else:
                    # Raw-policy columns (indptr offsets, pruning bounds, ...)
                    # must come back as plain memmap-backed ndarrays.
                    assert isinstance(candidate, np.ndarray)
                assert np.array_equal(np.asarray(reference), np.asarray(candidate))
            assert chunked_names, f"no column of {file_name} was chunk-compressed"

    def test_randomized_slices_gathers_and_scalar_reads(self, artifacts):
        raw, compressed, _ = artifacts
        raw_cols = _mmap_npz(raw / SCORING_NAME)
        cmp_cols = _mmap_npz(compressed / SCORING_NAME)
        rng = np.random.default_rng(7)
        targets = [n for n, c in cmp_cols.items() if isinstance(c, ChunkedColumn)]
        for name in targets:
            reference = np.asarray(raw_cols[name])
            candidate = cmp_cols[name]
            n = len(reference)
            for _ in range(10):
                lo = int(rng.integers(0, n))
                hi = int(rng.integers(lo, n + 1))
                assert np.array_equal(candidate[lo:hi], reference[lo:hi]), name
                pos = int(rng.integers(0, n))
                assert candidate[pos] == reference[pos], name
                gather = rng.integers(0, n, size=min(n, 17))
                assert np.array_equal(candidate[gather], reference[gather]), name
            mask = rng.random(n) < 0.3
            assert np.array_equal(candidate[mask], reference[mask]), name

    @pytest.mark.parametrize("name", list(_OPERATORS))
    def test_operators_match_the_materialised_column(self, artifacts, name):
        # post_rows is an integer column, so every operator (bitwise ones
        # included) is defined on it. Binary operators run with the column on
        # either side, against an ndarray and against a scalar.
        _, compressed, _ = artifacts
        column = _mmap_npz(compressed / SCORING_NAME)["post_rows"]
        assert isinstance(column, ChunkedColumn)
        decoded = np.asarray(column)
        op = _OPERATORS[name]
        with np.errstate(divide="ignore", invalid="ignore"):  # x / 0 on row 0
            if name in _UNARY:
                pairs = [(op(column), op(decoded))]
            else:
                pairs = [
                    pair
                    for other in (decoded[::-1].copy(), 3)
                    for pair in ((op(column, other), op(decoded, other)),
                                 (op(other, column), op(other, decoded)))
                ]
        for got, expected in pairs:
            assert type(got) is np.ndarray
            assert got.dtype == expected.dtype
            np.testing.assert_array_equal(got, expected)
        with pytest.raises(TypeError):
            hash(column)

    def test_pickle_materialises_to_plain_readonly_ndarray(self, artifacts):
        _, compressed, _ = artifacts
        cmp_cols = _mmap_npz(compressed / SCORING_NAME)
        name = next(n for n, c in cmp_cols.items() if isinstance(c, ChunkedColumn))
        column = cmp_cols[name]
        clone = pickle.loads(pickle.dumps(column))
        assert type(clone) is np.ndarray
        assert not clone.flags.writeable
        assert np.array_equal(clone, np.asarray(column))


# -------------------------------------------------------------- query parity
class TestCompressedQueryParity:
    def test_all_solvers_identical_to_raw_artifact(self, artifacts):
        raw, compressed, _ = artifacts
        raw_engine = LCMSREngine.from_artifact(raw)
        cmp_engine = LCMSREngine.from_artifact(compressed)
        small_window = Rectangle(100.0, 100.0, 430.0, 430.0)
        for algorithm, kwargs in [
            ("app", {}),
            ("tgen", {}),
            ("greedy", {}),
            ("exact", {"region": small_window}),
        ]:
            _assert_same_result(
                raw_engine.query(
                    ["cafe", "restaurant"], delta=700.0, algorithm=algorithm, **kwargs
                ),
                cmp_engine.query(
                    ["cafe", "restaurant"], delta=700.0, algorithm=algorithm, **kwargs
                ),
            )

    def test_lzma_codec_round_trips(self, artifacts, tmp_path):
        raw, _, bundle = artifacts
        bundle.save(tmp_path / "lzma", compress="lzma")
        verify_artifact(tmp_path / "lzma")
        _assert_same_result(
            LCMSREngine.from_artifact(raw).query(["bar"], delta=600.0),
            LCMSREngine.from_artifact(tmp_path / "lzma").query(["bar"], delta=600.0),
        )

    def test_eager_load_decodes_all_chunks_up_front(self, artifacts):
        _, compressed, _ = artifacts
        eager = IndexBundle.load(compressed, mmap=False)
        mapped = IndexBundle.load(compressed, mmap=True)
        _assert_same_result(
            LCMSREngine.from_bundle(eager).query(["bar"], delta=500.0),
            LCMSREngine.from_bundle(mapped).query(["bar"], delta=500.0),
        )

    def test_service_batches_identical_through_instance_cache(self, artifacts):
        raw, compressed, _ = artifacts
        requests = [
            QueryRequest.create(["cafe", "restaurant"], delta=700.0),
            QueryRequest.create(["bar"], delta=500.0),
            QueryRequest.create(["cafe"], delta=600.0, k=3),
        ]
        outcomes = []
        for path in (raw, compressed):
            with QueryService(LCMSREngine.from_artifact(path)) as service:
                service.run_batch(requests)  # warm the instance cache
                outcomes.append(service.run_batch(requests))
        for result_raw, result_cmp in zip(*outcomes):
            if hasattr(result_raw, "results"):  # top-k
                for a, b in zip(result_raw.results, result_cmp.results):
                    _assert_same_result(a, b)
            else:
                _assert_same_result(result_raw, result_cmp)

    def test_unknown_codec_rejected(self):
        with pytest.raises(ArtifactError, match="unknown compression codec"):
            compression_spec("zstd")


# ----------------------------------------------------------------- integrity
class TestCompressedIntegrity:
    def test_decode_chunk_rejects_crc_mismatch(self):
        raw = np.arange(256, dtype=np.float64).tobytes()
        _, crc = encode_chunk(raw, 8, "zlib", 6, True)
        other_payload, _ = encode_chunk(bytes(len(raw)), 8, "zlib", 6, True)
        with pytest.raises(ArtifactError, match="chunk checksum mismatch"):
            decode_chunk(other_payload, 8, "zlib", True, crc, "scoring.npz:post_tfidf")

    def test_corrupted_chunk_payload_detected_without_file_verify(
        self, artifacts, tmp_path
    ):
        _, compressed, _ = artifacts
        victim = tmp_path / "corrupt"
        shutil.copytree(compressed, victim)
        scoring = victim / SCORING_NAME
        with zipfile.ZipFile(scoring) as archive:
            info = next(
                i for i in archive.infolist() if _CHUNK_MEMBER_RE.match(i.filename)
            )
        column = _CHUNK_MEMBER_RE.match(info.filename).group("column")
        with open(scoring, "rb") as handle:
            offset = _stored_member_offset(handle, scoring, info)
        with open(scoring, "r+b") as handle:
            handle.seek(offset + info.file_size // 2)
            byte = handle.read(1)
            handle.seek(-1, 1)
            handle.write(bytes([byte[0] ^ 0xFF]))
        # File-level verification is skipped (verify=False): the chunk layer
        # itself must catch the corruption at first decode.
        columns = _mmap_npz(scoring)
        with pytest.raises(ArtifactError, match="chunk"):
            np.asarray(columns[column])

    def test_v4_artifact_rejected_with_rebuild_hint(self, artifacts, tmp_path):
        raw, _, _ = artifacts
        stale = tmp_path / "v4"
        shutil.copytree(raw, stale)
        manifest = json.loads((stale / MANIFEST_NAME).read_text(encoding="utf-8"))
        manifest["format_version"] = 4
        (stale / MANIFEST_NAME).write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(ArtifactError) as excinfo:
            IndexBundle.load(stale)
        message = str(excinfo.value)
        assert "format version 4" in message
        assert "rebuild the artifact" in message
        assert "python -m repro build" in message


# ----------------------------------------------------------------- streaming
class TestStreamingBuildParity:
    def test_streamed_artifact_byte_identical_to_eager(self, tmp_path):
        dataset = build_ny_like(**_DATASET_PARAMS)
        IndexBundle.from_dataset(dataset).save(tmp_path / "eager")
        network, objects = ny_like_parts(**_DATASET_PARAMS)
        streamed = IndexBundle.build_streaming(network, objects)
        streamed.save(tmp_path / "streamed")
        for name in (SCORING_NAME, NETWORK_NAME, INDEX_NAME, VOCABULARY_NAME):
            assert (tmp_path / "eager" / name).read_bytes() == (
                tmp_path / "streamed" / name
            ).read_bytes(), name
        assert read_manifest(tmp_path / "eager") == read_manifest(tmp_path / "streamed")
        _assert_same_result(
            LCMSREngine.from_artifact(tmp_path / "eager").query(
                ["cafe", "restaurant"], delta=700.0
            ),
            LCMSREngine.from_artifact(tmp_path / "streamed").query(
                ["cafe", "restaurant"], delta=700.0
            ),
        )

    def test_compressed_streaming_build_is_deterministic(self, tmp_path):
        for run in ("one", "two"):
            network, objects = ny_like_parts(**_DATASET_PARAMS)
            bundle = IndexBundle.build_streaming(network, objects)
            bundle.save(tmp_path / run, compress="zlib")
        for name in (MANIFEST_NAME, SCORING_NAME, NETWORK_NAME, INDEX_NAME,
                     VOCABULARY_NAME):
            assert (tmp_path / "one" / name).read_bytes() == (
                tmp_path / "two" / name
            ).read_bytes(), name
