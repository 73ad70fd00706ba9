"""Persistent index-bundle artifacts: build the indexes once, serve from disk forever.

Every process used to pay the full offline pipeline — object → node mapping, the
columnar scoring index and the CSR freeze — before it could answer a single
query. This module serialises a complete
:class:`~repro.service.bundle.IndexBundle` into a **versioned directory artifact**
and loads it back with the large arrays memory-mapped, separating offline index
construction (``python -m repro build``) from online serving
(:meth:`LCMSREngine.from_artifact <repro.engine.LCMSREngine.from_artifact>`).

Artifact layout (one directory per artifact)::

    <artifact>/
        manifest.json     format version, dataset fingerprint, build parameters,
                          per-file SHA-256 checksums, headline statistics
        network.npz       the CompactNetwork CSR arrays (ids, xs, ys, indptr,
                          indices, lengths), stored raw by default and loaded
                          back as read-only memory maps; under ``--compress``
                          the payload columns are chunk-compressed (the CSR
                          ``indptr`` always stays raw)
        scoring.npz       the ColumnarScoringIndex columns (CSR term → object
                          postings with TF-IDF / raw-tf / LM log-probability
                          value columns, the object table, the node table and
                          the CSR node → object map — the one stored copy of
                          the object → node mapping), stored raw by default and
                          loaded back as read-only memory maps — the σ_v hot
                          path is query-ready without materialising anything.
                          Under ``--compress`` the bulky value columns are
                          chunk-compressed and decoded lazily per chunk behind
                          :class:`~repro.service.chunked.ChunkedColumn`; the
                          indptr, ``post_cell`` and bound-aggregate columns
                          stay raw memory maps so the pruning and window
                          searches never pay a decode (see
                          ``_COMPRESSED_SCORING_COLUMNS``)
        index.pkl         the pickled object corpus, nothing else (the
                          compactor rebuilds from the corpus; the columns
                          cannot replace it because they drop each object's
                          keyword order, which the TF-IDF norms sum over).
                          Mapped read-only at load and unpickled on first
                          use (see :class:`CorpusLoader`): no query reads it.
                          The mapping is read off scoring.npz on demand (see
                          :attr:`IndexBundle.mapping
                          <repro.service.bundle.IndexBundle.mapping>`)
        vocabulary.json   the sorted corpus term list; doubles as the columnar
                          index's term-id table (term id = list position)

Design notes:

* **Determinism.** Two builds of the same dataset under the same seed produce
  byte-identical artifacts: the npz member timestamps are pinned to the zip epoch,
  the manifest carries no wall-clock fields, JSON keys are sorted, and the pickle
  uses a fixed protocol. This makes artifacts diffable, checksummable and safe to
  cache by content.
* **mmap loading.** ``network.npz`` is written uncompressed (``ZIP_STORED``), so
  each member's raw ``.npy`` payload sits at a known offset inside the file and can
  be mapped directly with :class:`numpy.memmap` in read-only mode; the loader
  hands out plain read-only ``ndarray`` views of those maps, so the hot path
  pays no ``memmap`` subclass overhead per slice. Loading is
  therefore I/O-bound header parsing, not array materialisation — combined with
  :class:`~repro.network.compact.CompactNetwork`'s lazy traversal mirrors, an
  engine is query-ready without reading the bulk of the arrays.
* **Lazy corpus.** Unpickling ``index.pkl`` is most of an eager open (1.3 s
  and most of the resident memory at 200,000 objects), yet only writers read
  the corpus: overlay updates of base objects, compaction, sharding and
  saving. :func:`load_bundle` therefore maps the file and hands the bundle a
  :class:`CorpusLoader`, which unpickles it on the first
  :attr:`IndexBundle.corpus <repro.service.bundle.IndexBundle.corpus>` access
  — after re-checking the mapped bytes against the manifest when the load was
  verified.
* **Chunked compression (format 5).** With a codec selected, each bulky payload
  column is split into fixed-size chunks, each chunk compressed independently
  (zlib or lzma, both stdlib) behind a byte-shuffle filter, and stored as its
  own ``ZIP_STORED`` zip member next to a per-column descriptor
  (``<column>.chunks.json``: dtype, length, chunk size, codec, per-chunk CRC-32
  of the decoded bytes). Readers get a
  :class:`~repro.service.chunked.ChunkedColumn` that decodes chunks on demand
  through an LRU cache — decoded bytes are bit-identical to a raw build, so
  query results are byte-identical across compressed and raw artifacts. The
  CSR ``indptr`` columns, ``post_cell`` and the bound-aggregate columns stay
  raw memory maps: every query reads them and they must stay zero-decode.
  ``index.pkl`` is compressed wholesale with the same codec. The chunk
  pipeline is deterministic (fixed codec levels, pinned member timestamps), so
  same-seed compressed builds are byte-identical too.
* **Versioning policy.** ``format_version`` is bumped on any layout or encoding
  change; loaders refuse other versions outright (no silent migration). The
  ``fingerprint`` identifies the *dataset content* independent of the format, so
  caches can answer "is this artifact built from these exact inputs?" without
  deserialising anything.
"""

from __future__ import annotations

import hashlib
import io
import json
import mmap
import pickle
import re
import struct
import threading
import time
import zipfile
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional, Union

import numpy as np

from repro.exceptions import ArtifactError, IndexError_, QueryError
from repro.network.compact import CompactNetwork
from repro.network.graph import RoadNetwork
from repro.objects.corpus import ObjectCorpus
from repro.service.chunked import (
    CODECS,
    DEFAULT_CHUNK_ELEMS,
    DEFAULT_CODEC,
    DEFAULT_LEVELS,
    ChunkedColumn,
    CompressingWriter,
    decompress_bytes,
    encode_chunk,
)
from repro.textindex.columnar import ARRAY_FIELDS as _SCORING_FIELDS
from repro.textindex.columnar import ColumnarScoringIndex
from repro.textindex.relevance import LM_SMOOTHING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (bundle imports persist)
    from repro.service.bundle import IndexBundle

FORMAT_VERSION = 9
"""Current on-disk artifact format version (see the module docstring).

Version history: 1 — network.npz + index.pkl + vocabulary.json; 2 — adds
scoring.npz (the columnar scoring index) and the manifest's ``lm_smoothing``
field; 3 — adds the per-cell bound aggregate columns to scoring.npz (the
``bound_meta`` / ``*_cell`` / ``cell_*`` arrays backing
:class:`repro.core.bounds.UpperBoundIndex`); 4 — adds the corpus-global
statistic columns ``term_df`` / ``corpus_meta`` to scoring.npz (so spatial
shards score with full-corpus IDF weights) and the manifest's optional
``shard`` block (tile / extent / halo linkage of a shard sub-artifact, see
:mod:`repro.service.sharding`); 5 — adds optional per-column chunked
compression inside the ``.npz`` containers (``<column>.chunks.json``
descriptor + ``<column>.chunkNNNNN`` payload members, decoded lazily behind
:class:`~repro.service.chunked.ChunkedColumn`), whole-file compression of
``index.pkl``, and the manifest's optional ``compression`` block (codec,
level, chunk size, per-file raw byte counts); 6 — ``index.pkl`` holds only
``(corpus, mapping)`` (no vector-space model, grid index or scorer), the
scoring mode comes from the manifest, and the manifest drops
``grid_resolution``; 7 — ``index.pkl`` holds only the corpus (the mapping is
read off scoring.npz's node table and node → object CSR), and scoring.npz drops
four bound columns no query read: ``cell_sigma_max``, ``cell_obj_count``,
``cell_post_count`` and the per-node cell ids; 8 — each term's postings in
scoring.npz ascend by (bound-grid cell, row) instead of by row, and the new
``post_cell`` column holds each posting's cell, so a windowed σ_v read finds a
term's in-window postings by binary search; 9 — scoring.npz drops
``cell_node_mass``, which only an unused ball bound read. Loaders accept exactly the
current version (no silent migration); older artifacts must be rebuilt with
``python -m repro build``.
"""

MANIFEST_NAME = "manifest.json"
NETWORK_NAME = "network.npz"
SCORING_NAME = "scoring.npz"
INDEX_NAME = "index.pkl"
VOCABULARY_NAME = "vocabulary.json"
_PAYLOAD_NAMES = (NETWORK_NAME, SCORING_NAME, INDEX_NAME, VOCABULARY_NAME)

_PICKLE_PROTOCOL = 4
_ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)  # fixed member timestamp => deterministic bytes
_NETWORK_FIELDS = ("ids", "xs", "ys", "indptr", "indices", "lengths")

# Column compression policy. Compressed: the bulky per-posting / per-object /
# per-node payload columns that queries touch in narrow windows. Raw (always a
# plain memory map): every CSR indptr (one random read per term lookup — a
# decode there would serialise every query), ``post_cell`` (every windowed
# query binary-searches each query term's cells in it, so a decode there would
# serialise reads just the same), the bound-aggregate columns that bound-based
# pruning reads on every request, the tiny per-term / corpus-stat tables, and
# the node table (ids and coordinates). Only 1-D columns are ever chunked.
_COMPRESSED_SCORING_COLUMNS = frozenset(
    {
        "post_rows",
        "post_tfidf",
        "post_tf",
        "lm_log_mixed",
        "object_ids",
        "obj_x",
        "obj_y",
        "obj_rating",
        "obj_node_pos",
        "node_rows",
    }
)
_COMPRESSED_NETWORK_COLUMNS = frozenset({"ids", "xs", "ys", "indices", "lengths"})

_CHUNK_DESCRIPTOR_SUFFIX = ".chunks.json"
_CHUNK_MEMBER_RE = re.compile(r"^(?P<column>.+)\.chunk(?P<index>\d{5})$")

PathLike = Union[str, Path]


# ---------------------------------------------------------------------- manifest
@dataclass(frozen=True)
class ArtifactManifest:
    """The machine-readable description of one on-disk artifact.

    Attributes:
        format_version: On-disk layout version; loaders accept exactly
            :data:`FORMAT_VERSION`.
        fingerprint: SHA-256 content fingerprint of the indexed dataset (network
            CSR arrays + object corpus), format-independent — see
            :func:`dataset_fingerprint`.
        scoring_mode: The bundle's :class:`~repro.textindex.relevance.ScoringMode`
            value.
        lm_smoothing: The Jelinek–Mercer λ the columnar language-model columns
            were precomputed with.
        stats: Headline counts (nodes, edges, objects, vocabulary size,
            postings, mapped nodes).
        checksums: ``file name → sha256 hex digest`` for every payload file.
        shard: ``None`` for a standalone artifact. For a shard sub-artifact
            (see :mod:`repro.service.sharding`): the tile and halo-expanded
            extent rectangles (``[min_x, min_y, max_x, max_y]``), the
            ``halo_margin`` the extent was grown by, the shard's ``part`` /
            ``of`` position in its set, and the ``base_fingerprint`` of the
            full artifact it was partitioned from (the staleness check).
        compression: ``None`` for a raw (uncompressed) artifact. Otherwise the
            chunk-compression parameters the payload files were written with —
            ``codec`` (``zlib``/``lzma``), ``level``, ``chunk_elems``,
            ``shuffle`` — plus ``raw_bytes``, the per-file serialised sizes
            *before* compression (what ``python -m repro info`` reports the
            compression ratio against).
    """

    format_version: int
    fingerprint: str
    scoring_mode: str
    lm_smoothing: float = LM_SMOOTHING
    stats: Dict[str, int] = field(default_factory=dict)
    checksums: Dict[str, str] = field(default_factory=dict)
    shard: Optional[Dict[str, object]] = None
    compression: Optional[Dict[str, object]] = None

    def to_json(self) -> str:
        """Render the manifest as canonical (sorted-keys) JSON."""
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ArtifactManifest":
        """Parse a manifest; raises :class:`ArtifactError` on malformed content."""
        try:
            raw = json.loads(text)
            return cls(
                format_version=int(raw["format_version"]),
                fingerprint=str(raw["fingerprint"]),
                scoring_mode=str(raw["scoring_mode"]),
                lm_smoothing=float(raw.get("lm_smoothing", LM_SMOOTHING)),
                stats={str(k): int(v) for k, v in raw.get("stats", {}).items()},
                checksums={str(k): str(v) for k, v in raw.get("checksums", {}).items()},
                shard=raw.get("shard"),
                compression=raw.get("compression"),
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise ArtifactError(f"malformed artifact manifest: {exc}") from exc


def read_manifest(path: PathLike) -> ArtifactManifest:
    """Read and validate the manifest of the artifact directory at ``path``.

    Args:
        path: The artifact directory.

    Returns:
        The parsed manifest.

    Raises:
        ArtifactError: If the directory or manifest is missing, the manifest is
            malformed, or the artifact was written by an unsupported format
            version.
    """
    manifest_path = Path(path) / MANIFEST_NAME
    if not manifest_path.is_file():
        raise ArtifactError(f"no artifact manifest at {manifest_path}")
    manifest = ArtifactManifest.from_json(manifest_path.read_text(encoding="utf-8"))
    if manifest.format_version != FORMAT_VERSION:
        raise ArtifactError(
            f"unsupported artifact format version {manifest.format_version} "
            f"(this build reads version {FORMAT_VERSION}); rebuild the artifact "
            f"with `python -m repro build`"
        )
    return manifest


# ---------------------------------------------------------------------- fingerprint
def dataset_fingerprint(
    network: CompactNetwork | RoadNetwork, corpus: ObjectCorpus
) -> str:
    """Return a SHA-256 content fingerprint of a (network, corpus) pair.

    The fingerprint covers the frozen CSR arrays (so node/edge identity, order,
    coordinates and lengths all contribute) and every object's id, location,
    rating and term-frequency map (terms in sorted order). It is independent of
    the artifact format, so an in-memory dataset can be matched against a stored
    manifest without serialising anything.
    """
    compact = CompactNetwork.from_network(network)
    digest = hashlib.sha256()
    ids, xs, ys = compact.csr_node_arrays()
    indptr, indices, lengths = compact.csr_index_arrays()
    for array in (ids, xs, ys, indptr, indices, lengths):
        contiguous = np.ascontiguousarray(array)
        digest.update(str(contiguous.dtype).encode("ascii"))
        digest.update(struct.pack("<q", contiguous.shape[0]))
        digest.update(contiguous.tobytes())
    pack_header = struct.Struct("<qddd").pack
    pack_count = struct.Struct("<q").pack
    for obj in corpus:
        digest.update(pack_header(obj.object_id, obj.x, obj.y, obj.rating))
        for term in sorted(obj.keywords):
            digest.update(term.encode("utf-8"))
            digest.update(b"\x00")
            digest.update(pack_count(obj.keywords[term]))
    return digest.hexdigest()


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _check_digest(name: str, directory: Path, expected: str, actual: str) -> None:
    """Raise :class:`ArtifactError` when a payload's SHA-256 is not the manifest's."""
    if actual != expected:
        raise ArtifactError(
            f"checksum mismatch for {name} in {directory}: "
            f"manifest says {expected[:12]}…, file hashes to {actual[:12]}… "
            f"(artifact corrupted or tampered with)"
        )


# ---------------------------------------------------------------------- npz helpers
def _replace_into(temp_path: Path, final_path: Path) -> None:
    """Atomically move a finished temp file into place (POSIX rename semantics).

    Writing payloads to a sibling temp file first and renaming keeps two
    guarantees: a crash mid-save never leaves a half-written file under the
    final name, and **re-saving an artifact over itself is safe even while its
    arrays are memory-mapped** — the open mapping keeps the old inode alive
    while the new file takes over the directory entry (truncating the mapped
    file in place would SIGBUS every reader).
    """
    temp_path.replace(final_path)


def compression_spec(
    codec: Optional[str], level: Optional[int] = None
) -> Optional[Dict[str, object]]:
    """Normalise a codec request into the internal compression-spec dict.

    ``None`` / ``"none"`` mean "store raw" and return ``None``; otherwise the
    spec carries the codec name, effort level (codec default when omitted),
    chunk size and shuffle flag that every writer in this module consumes.

    Raises:
        ArtifactError: On an unknown codec name.
    """
    if codec is None or codec == "none":
        return None
    if codec not in CODECS:
        raise ArtifactError(
            f"unknown compression codec {codec!r} (supported: none, "
            + ", ".join(CODECS)
            + ")"
        )
    return {
        "codec": codec,
        "level": int(level) if level is not None else DEFAULT_LEVELS[codec],
        "chunk_elems": DEFAULT_CHUNK_ELEMS,
        "shuffle": True,
    }


def _add_stored_member(archive: zipfile.ZipFile, name: str, data: bytes) -> None:
    """Add one ``ZIP_STORED`` member with the pinned epoch timestamp."""
    info = zipfile.ZipInfo(name, date_time=_ZIP_EPOCH)
    info.compress_type = zipfile.ZIP_STORED
    info.external_attr = 0o644 << 16
    archive.writestr(info, data)


def _write_npz(
    path: Path,
    arrays: Dict[str, np.ndarray],
    compression: Optional[Dict[str, object]] = None,
    compressed_columns: frozenset = frozenset(),
) -> int:
    """Write ``arrays`` as a byte-deterministic ``.npz`` file.

    Unlike :func:`numpy.savez` this pins every zip member's timestamp to the zip
    epoch, so identical arrays always produce identical bytes. Raw members are
    stored (not deflated) so :func:`_mmap_npz` can map them in place. With a
    ``compression`` spec, each 1-D column named in ``compressed_columns`` is
    written as a ``<name>.chunks.json`` descriptor followed by independently
    compressed ``<name>.chunkNNNNN`` payload members (themselves ``ZIP_STORED``
    — the chunk codec already compressed them); everything else stays a raw
    ``.npy`` member, so one file freely mixes mmap-able and chunked columns.
    The file is written to a temp sibling and renamed into place (see
    :func:`_replace_into`).

    Returns:
        The total raw (pre-compression) payload bytes, for the manifest's
        compression-ratio accounting.
    """
    temp_path = path.with_name(path.name + ".tmp")
    raw_total = 0
    with zipfile.ZipFile(temp_path, "w", compression=zipfile.ZIP_STORED) as archive:
        for name in sorted(arrays):
            contiguous = np.ascontiguousarray(arrays[name])
            chunk_it = (
                compression is not None
                and name in compressed_columns
                and contiguous.ndim == 1
                and contiguous.size > 0
            )
            if not chunk_it:
                buffer = io.BytesIO()
                np.lib.format.write_array(buffer, contiguous, allow_pickle=False)
                data = buffer.getvalue()
                raw_total += len(data)
                _add_stored_member(archive, name + ".npy", data)
                continue
            raw_total += contiguous.nbytes
            codec = str(compression["codec"])
            level = int(compression["level"])
            chunk_elems = int(compression["chunk_elems"])
            shuffle = bool(compression["shuffle"])
            itemsize = contiguous.dtype.itemsize
            payloads = []
            chunk_meta = []
            for start in range(0, len(contiguous), chunk_elems):
                raw = contiguous[start : start + chunk_elems].tobytes()
                payload, crc = encode_chunk(raw, itemsize, codec, level, shuffle)
                payloads.append(payload)
                chunk_meta.append([len(payload), crc])
            descriptor = {
                "dtype": np.lib.format.dtype_to_descr(contiguous.dtype),
                "length": int(len(contiguous)),
                "chunk_elems": chunk_elems,
                "codec": codec,
                "level": level,
                "shuffle": shuffle,
                "chunks": chunk_meta,
            }
            _add_stored_member(
                archive,
                name + _CHUNK_DESCRIPTOR_SUFFIX,
                json.dumps(descriptor, sort_keys=True, separators=(",", ":")).encode(
                    "ascii"
                ),
            )
            for index, payload in enumerate(payloads):
                _add_stored_member(archive, f"{name}.chunk{index:05d}", payload)
    _replace_into(temp_path, path)
    return raw_total


def _write_bytes_atomic(path: Path, data: bytes) -> None:
    temp_path = path.with_name(path.name + ".tmp")
    temp_path.write_bytes(data)
    _replace_into(temp_path, path)


def _stored_member_offset(handle, path: Path, info: zipfile.ZipInfo) -> int:
    """Return the absolute file offset of a stored zip member's payload."""
    handle.seek(info.header_offset)
    header = handle.read(30)
    if len(header) != 30 or header[:4] != b"PK\x03\x04":
        raise ArtifactError(f"corrupt zip local header in {path.name}")
    name_length = int.from_bytes(header[26:28], "little")
    extra_length = int.from_bytes(header[28:30], "little")
    return info.header_offset + 30 + name_length + extra_length


def _npy_data_offset(path: Path, info: zipfile.ZipInfo) -> int:
    """Return the absolute file offset of a stored zip member's payload."""
    with open(path, "rb") as handle:
        return _stored_member_offset(handle, path, info)


def _chunked_column(
    path: Path,
    handle,
    column: str,
    descriptor: Dict[str, object],
    members: Dict[str, zipfile.ZipInfo],
) -> ChunkedColumn:
    """Assemble one :class:`ChunkedColumn` from its descriptor + chunk members."""
    try:
        dtype = np.dtype(descriptor["dtype"])
        length = int(descriptor["length"])
        chunk_elems = int(descriptor["chunk_elems"])
        codec = str(descriptor["codec"])
        shuffle = bool(descriptor["shuffle"])
        chunk_meta = list(descriptor["chunks"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(
            f"malformed chunk descriptor for column {column!r} in {path.name}: {exc}"
        ) from exc
    chunks = []
    for index, (payload_size, crc) in enumerate(chunk_meta):
        member = members.get(f"{column}.chunk{index:05d}")
        if member is None:
            raise ArtifactError(
                f"{path.name} is missing chunk {index} of column {column!r}"
            )
        offset = _stored_member_offset(handle, path, member)
        chunks.append((offset, int(payload_size), int(crc)))
    return ChunkedColumn(
        path,
        column,
        dtype,
        length,
        chunk_elems,
        codec,
        shuffle,
        chunks,
    )


def _mmap_npz(path: Path) -> Dict[str, np.ndarray]:
    """Open every array of an artifact ``.npz`` lazily.

    Raw ``.npy`` members become read-only ``ndarray`` views of memory maps;
    chunk-compressed columns (a ``.chunks.json`` descriptor plus
    ``.chunkNNNNN`` payload members) become
    :class:`~repro.service.chunked.ChunkedColumn` views that decode on demand.

    Raises:
        ArtifactError: If a member is zip-compressed, which no writer produces.
    """
    arrays: Dict[str, np.ndarray] = {}
    descriptors: Dict[str, Dict[str, object]] = {}
    with zipfile.ZipFile(path, "r") as archive:
        members = {info.filename: info for info in archive.infolist()}
        for info in members.values():
            filename = info.filename
            if filename.endswith(_CHUNK_DESCRIPTOR_SUFFIX):
                column = filename[: -len(_CHUNK_DESCRIPTOR_SUFFIX)]
                try:
                    descriptors[column] = json.loads(archive.read(info))
                except ValueError as exc:
                    raise ArtifactError(
                        f"malformed chunk descriptor for column {column!r} "
                        f"in {path.name}: {exc}"
                    ) from exc
                continue
            if _CHUNK_MEMBER_RE.match(filename):
                continue  # payload member; picked up via its descriptor below
            name = filename[:-4] if filename.endswith(".npy") else filename
            if info.compress_type != zipfile.ZIP_STORED:
                raise ArtifactError(
                    f"{path.name}: member {filename!r} is zip-compressed; artifact "
                    f"members are stored uncompressed, so rebuild the artifact "
                    f"with `python -m repro build`"
                )
            data_offset = _npy_data_offset(path, info)
            with open(path, "rb") as handle:
                handle.seek(data_offset)
                version = np.lib.format.read_magic(handle)
                if version == (1, 0):
                    shape, fortran, dtype = np.lib.format.read_array_header_1_0(handle)
                else:
                    shape, fortran, dtype = np.lib.format.read_array_header_2_0(handle)
                array_offset = handle.tell()
            # A plain ndarray view of the read-only mapping: the same pages,
            # without np.memmap's per-operation __getitem__ and
            # __array_finalize__ overhead on every slice a query takes.
            arrays[name] = np.asarray(
                np.memmap(
                    path,
                    dtype=dtype,
                    mode="r",
                    offset=array_offset,
                    shape=shape,
                    order="F" if fortran else "C",
                )
            )
        if descriptors:
            with open(path, "rb") as handle:
                for column, descriptor in descriptors.items():
                    arrays[column] = _chunked_column(
                        path, handle, column, descriptor, members
                    )
    return arrays


# ---------------------------------------------------------------------- save / load
def _write_pickle_atomic(
    path: Path, payload: object, compression: Optional[Dict[str, object]]
) -> int:
    """Stream-pickle ``payload`` to ``path`` (optionally compressed wholesale).

    The pickler writes straight into the (compressing) file sink, so the full
    pickle byte string never exists in memory — at a million objects that is
    the difference between one and two resident copies of the corpus during
    save. Returns the raw (uncompressed) pickle size.
    """
    temp_path = path.with_name(path.name + ".tmp")
    with open(temp_path, "wb") as handle:
        if compression is None:
            sink = CompressingWriter(handle, None)
        else:
            sink = CompressingWriter(
                handle, str(compression["codec"]), int(compression["level"])
            )
        pickle.dump(payload, sink, protocol=_PICKLE_PROTOCOL)
        sink.finish()
    _replace_into(temp_path, path)
    return sink.raw_bytes


def save_bundle(
    bundle: "IndexBundle",
    path: PathLike,
    overwrite: bool = False,
    fingerprint: Optional[str] = None,
    shard: Optional[Dict[str, object]] = None,
    compression: Optional[Dict[str, object]] = None,
) -> ArtifactManifest:
    """Serialise ``bundle`` into the artifact directory at ``path``.

    Args:
        bundle: The bundle to persist.
        path: Target directory; created (including parents) if missing.
        overwrite: Allow replacing an existing artifact (a directory that already
            holds a manifest). Without it, an existing artifact raises.
        fingerprint: Optional precomputed :func:`dataset_fingerprint` of this
            bundle's (network, corpus); computed here when omitted. Callers that
            already know it pass it to avoid hashing the content twice.
        shard: Optional shard-linkage block recorded verbatim in the manifest
            (see :attr:`ArtifactManifest.shard`); only the spatial partitioner
            passes it.
        compression: Optional chunk-compression spec from
            :func:`compression_spec`; ``None`` (the default) writes the raw
            mmap-everything layout.

    Returns:
        The manifest that was written.

    Raises:
        ArtifactError: If ``path`` holds an artifact and ``overwrite`` is false.
    """
    directory = Path(path)
    manifest_path = directory / MANIFEST_NAME
    if manifest_path.exists() and not overwrite:
        raise ArtifactError(
            f"artifact already exists at {directory}; pass overwrite=True "
            f"(or --force on the CLI) to replace it"
        )
    directory.mkdir(parents=True, exist_ok=True)

    compact = bundle.compact
    ids, xs, ys = compact.csr_node_arrays()
    indptr, indices, lengths = compact.csr_index_arrays()
    arrays = dict(zip(_NETWORK_FIELDS, (ids, xs, ys, indptr, indices, lengths)))
    raw_network = _write_npz(
        directory / NETWORK_NAME,
        arrays,
        compression=compression,
        compressed_columns=_COMPRESSED_NETWORK_COLUMNS,
    )

    columnar = bundle.columnar
    raw_scoring = _write_npz(
        directory / SCORING_NAME,
        columnar.arrays(),
        compression=compression,
        compressed_columns=_COMPRESSED_SCORING_COLUMNS,
    )

    raw_index = _write_pickle_atomic(directory / INDEX_NAME, bundle.corpus, compression)

    # The sorted term list IS the columnar term-id table (id = position).
    vocabulary = list(columnar.terms)
    vocabulary_bytes = (
        json.dumps(vocabulary, sort_keys=True, indent=0) + "\n"
    ).encode("utf-8")
    _write_bytes_atomic(directory / VOCABULARY_NAME, vocabulary_bytes)

    compression_block: Optional[Dict[str, object]] = None
    if compression is not None:
        compression_block = {
            "codec": compression["codec"],
            "level": compression["level"],
            "chunk_elems": compression["chunk_elems"],
            "shuffle": compression["shuffle"],
            "raw_bytes": {
                NETWORK_NAME: raw_network,
                SCORING_NAME: raw_scoring,
                INDEX_NAME: raw_index,
                VOCABULARY_NAME: len(vocabulary_bytes),
            },
        }

    manifest = ArtifactManifest(
        format_version=FORMAT_VERSION,
        fingerprint=fingerprint or dataset_fingerprint(compact, bundle.corpus),
        scoring_mode=bundle.scoring_mode.value,
        lm_smoothing=LM_SMOOTHING,
        stats={
            "num_nodes": compact.num_nodes,
            "num_edges": compact.num_edges,
            "num_objects": len(bundle.corpus),
            "vocabulary_size": len(vocabulary),
            "num_postings": columnar.num_postings,
            "num_mapped_nodes": columnar.num_nodes,
        },
        checksums={name: _sha256_file(directory / name) for name in _PAYLOAD_NAMES},
        shard=shard,
        compression=compression_block,
    )
    _write_bytes_atomic(manifest_path, manifest.to_json().encode("utf-8"))
    return manifest


def verify_artifact(path: PathLike) -> ArtifactManifest:
    """Check the artifact at ``path``: manifest readable, version supported,
    a checksum listed for each of the four payload files, and every listed
    file present with a matching checksum.

    Returns:
        The verified manifest.

    Raises:
        ArtifactError: On any missing file or checksum entry, version mismatch
            or checksum failure.
    """
    directory = Path(path)
    manifest = read_manifest(directory)
    unlisted = [name for name in _PAYLOAD_NAMES if name not in manifest.checksums]
    if unlisted:
        raise ArtifactError(
            f"manifest at {directory} lists no checksum for {', '.join(unlisted)} "
            f"(artifact corrupted or tampered with)"
        )
    for name, expected in manifest.checksums.items():
        file_path = directory / name
        if not file_path.is_file():
            raise ArtifactError(f"artifact file {name} missing from {directory}")
        _check_digest(name, directory, expected, _sha256_file(file_path))
    return manifest


def _read_corpus(
    data, checksum: Optional[str], codec: Optional[str], directory: Path
) -> ObjectCorpus:
    """Check, decompress and unpickle the bytes of ``index.pkl``.

    Args:
        data: The file's bytes, or a read-only mapping of them.
        checksum: The manifest's SHA-256 of the file; ``None`` skips the check.
        codec: The artifact's compression codec; ``None`` for a raw artifact.
        directory: The artifact directory, named in errors.
    """
    if checksum is not None:
        _check_digest(INDEX_NAME, directory, checksum, hashlib.sha256(data).hexdigest())
    try:
        if codec is not None:
            data = decompress_bytes(data, codec, context=INDEX_NAME)
        corpus = pickle.loads(data)
    except ArtifactError:
        raise
    except Exception as exc:  # unpicklable / truncated payload
        raise ArtifactError(f"cannot deserialise {INDEX_NAME}: {exc}") from exc
    if not isinstance(corpus, ObjectCorpus):
        raise ArtifactError(
            f"{INDEX_NAME} holds a {type(corpus).__name__}, not an object corpus"
        )
    return corpus


def _loaded_corpus(corpus: ObjectCorpus) -> ObjectCorpus:
    """Pickle helper: a :class:`CorpusLoader` unpickles as the corpus it loaded."""
    return corpus


class CorpusLoader:
    """The corpus of a loaded artifact, read from ``index.pkl`` on first call.

    :func:`load_bundle` maps ``index.pkl`` read-only and hands the bundle one
    loader instead of the corpus. The mapping holds the inode the load opened,
    as the memory-mapped columns do, so an artifact re-saved over the same
    directory does not change a live bundle's corpus.

    The first call re-hashes the mapped bytes against ``checksum``, so a
    verified load never unpickles bytes the manifest did not vouch for, even
    after an in-place edit. It then decompresses them when the artifact is
    compressed, unpickles them, and closes the mapping. It runs once, under
    the loader's lock, however many threads call at the same time. Later calls
    return the same corpus; after a failure, every call raises the same
    :class:`ArtifactError`. Pickling a loader pickles the corpus it loads, the
    way a pickled :class:`~repro.service.chunked.ChunkedColumn` carries its
    decoded array.

    Args:
        data: The read-only mapping of ``index.pkl``.
        checksum: The manifest's SHA-256 of ``index.pkl``; ``None`` (an
            unverified load) skips the re-check.
        codec: The artifact's compression codec; ``None`` for a raw artifact.
        directory: The artifact directory, named in errors.
    """

    def __init__(
        self,
        data: mmap.mmap,
        checksum: Optional[str],
        codec: Optional[str],
        directory: Path,
    ) -> None:
        self._data: Optional[mmap.mmap] = data
        self._checksum = checksum
        self._codec = codec
        self._directory = directory
        self._lock = threading.Lock()
        self._corpus: Optional[ObjectCorpus] = None
        self._error: Optional[ArtifactError] = None

    def __call__(self) -> ObjectCorpus:
        corpus = self._corpus
        if corpus is not None:
            return corpus
        with self._lock:
            if self._data is not None:
                try:
                    self._corpus = _read_corpus(
                        self._data, self._checksum, self._codec, self._directory
                    )
                except ArtifactError as exc:
                    self._error = exc
                self._data.close()
                self._data = None
            if self._error is not None:
                raise self._error
            return self._corpus

    def __reduce__(self):
        return (_loaded_corpus, (self(),))


def _map_readonly(path: Path) -> mmap.mmap:
    """Map ``path`` read-only; the mapping outlives the closed descriptor."""
    with open(path, "rb") as handle:
        return mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)


def load_bundle(path: PathLike, verify: bool = True) -> "IndexBundle":
    """Load the artifact at ``path`` back into an :class:`IndexBundle`.

    Raw array columns come back as read-only views of memory maps and chunk-compressed
    ones as lazily decoded :class:`~repro.service.chunked.ChunkedColumn`
    views, so no column is materialised at load time, and ``index.pkl`` is
    mapped too: the bundle's :attr:`~repro.service.bundle.IndexBundle.corpus`
    is unpickled on first access by a :class:`CorpusLoader`, after
    re-checking the mapped bytes against the manifest when ``verify`` is
    true. No query reads the corpus.

    Args:
        path: The artifact directory.
        verify: Verify file checksums against the manifest before loading
            (detects on-disk corruption; costs one streaming hash per file).
            The manifest must then list a checksum for every payload file.

    Returns:
        A bundle equivalent to the one that was saved. Every query path runs
        on its CSR snapshot; :meth:`IndexBundle.road_network
        <repro.service.bundle.IndexBundle.road_network>` thaws a mutable copy
        on demand.

    Raises:
        ArtifactError: On a missing/malformed artifact, an unsupported format
            version, language-model columns built with a λ other than
            :data:`~repro.textindex.relevance.LM_SMOOTHING`, an empty or
            unmappable ``index.pkl``, or (with ``verify``) a missing checksum
            or a checksum mismatch. A corrupt ``index.pkl`` raises on first
            corpus access.
    """
    from repro.service.bundle import IndexBundle, scoring_mode_of  # deferred: cycle

    directory = Path(path)
    start = time.perf_counter()
    manifest = verify_artifact(directory) if verify else read_manifest(directory)
    if manifest.lm_smoothing != LM_SMOOTHING:
        # The overlay values new objects with LM_SMOOTHING, so columns built
        # with another λ would disagree with it.
        raise ArtifactError(
            f"artifact language-model columns use smoothing {manifest.lm_smoothing} "
            f"(this build uses {LM_SMOOTHING}); rebuild the artifact with "
            f"`python -m repro build`"
        )

    network_path = directory / NETWORK_NAME
    scoring_path = directory / SCORING_NAME
    index_path = directory / INDEX_NAME
    vocabulary_path = directory / VOCABULARY_NAME
    if not all((directory / name).is_file() for name in _PAYLOAD_NAMES):
        raise ArtifactError(f"artifact at {directory} is missing payload files")
    try:
        arrays = _mmap_npz(network_path)
    except ArtifactError:
        raise
    except Exception as exc:  # corrupt zip / bad npy header (reachable with verify=False)
        raise ArtifactError(f"cannot read {NETWORK_NAME}: {exc}") from exc
    missing = [name for name in _NETWORK_FIELDS if name not in arrays]
    if missing:
        raise ArtifactError(f"network.npz is missing arrays: {missing}")
    compact = CompactNetwork(*(arrays[name] for name in _NETWORK_FIELDS))

    try:
        scoring_arrays = _mmap_npz(scoring_path)
    except ArtifactError:
        raise
    except Exception as exc:
        raise ArtifactError(f"cannot read {SCORING_NAME}: {exc}") from exc
    missing = [name for name in _SCORING_FIELDS if name not in scoring_arrays]
    if missing:
        raise ArtifactError(f"scoring.npz is missing arrays: {missing}")
    try:
        terms = json.loads(vocabulary_path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ArtifactError(f"malformed {VOCABULARY_NAME}: {exc}") from exc
    try:
        columnar = ColumnarScoringIndex.from_arrays(terms, scoring_arrays)
    except IndexError_ as exc:  # vocabulary and scoring.npz disagree
        raise ArtifactError(
            f"{VOCABULARY_NAME} does not match {SCORING_NAME}: {exc}"
        ) from exc
    try:
        scoring_mode = scoring_mode_of(manifest.scoring_mode)
    except QueryError as exc:
        raise ArtifactError(f"malformed artifact manifest: {exc}") from exc

    checksum = manifest.checksums[INDEX_NAME] if verify else None
    codec = (
        None if manifest.compression is None else str(manifest.compression.get("codec"))
    )
    try:
        data = _map_readonly(index_path)
    except (OSError, ValueError) as exc:  # ValueError: mmap of an empty file
        raise ArtifactError(f"cannot read {INDEX_NAME} in {directory}: {exc}") from exc

    elapsed = time.perf_counter() - start
    bundle = IndexBundle(
        corpus_source=CorpusLoader(data, checksum, codec, directory),
        compact=compact,
        columnar=columnar,
        scoring_mode=scoring_mode,
        build_seconds={"load": elapsed, "total": elapsed},
    )
    # Seed the lazy fingerprint cache from the manifest: loaded bundles never
    # need to re-hash their own content to identify themselves.
    object.__setattr__(bundle, "_fingerprint", manifest.fingerprint)
    return bundle
