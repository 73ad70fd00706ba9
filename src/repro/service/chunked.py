"""Chunk-compressed column storage for format-version-5 artifacts.

The Parquet lesson at continental scale: a columnar file fits an order of
magnitude more rows on the same disk when each column is split into fixed-size
chunks and every chunk is compressed independently — readers then decode only
the chunks a query touches instead of inflating whole columns. This module is
that layout for the ``.npz`` payload files of :mod:`repro.service.persist`:

* :func:`encode_chunk` / :func:`decode_chunk` — one chunk's raw array bytes
  through a per-chunk filter and a stdlib codec (``zlib`` or ``lzma``; no
  third-party dependencies). Two filters are chosen adaptively per chunk and
  recorded in a one-byte mode tag inside the compressed body: a byte-shuffle
  (grouping the k-th byte of every element together, which turns
  slowly-varying numeric columns into long near-constant runs the entropy
  coder can exploit), and a value dictionary (unique bit patterns + small
  integer indices) for low-cardinality columns — scoring weights like
  ``wto = tf/‖o‖`` take only dozens of distinct float64 values per chunk, so
  dictionary chunks compress an order of magnitude better than shuffled ones.
  Every chunk records the CRC-32 of its *decoded* bytes, so a flipped bit
  inside a compressed payload is detected at decode time even when the
  per-file SHA-256 verification was skipped (``load_bundle(verify=False)``).
* :class:`ChunkedColumn` — a lazy, read-only, array-like view over one
  compressed column inside a zip container. Chunks are decoded on demand and
  kept in a small per-column LRU cache (repeated window gathers over the same
  postings ranges amortise to cache hits); whole-array consumers (numpy ufuncs,
  boolean masks) trigger a one-time full materialisation that is cached for the
  life of the column. Decoded bytes are bit-identical to the uncompressed
  build, so every kernel downstream — scoring, pruning, solvers — returns
  byte-identical results on compressed and raw artifacts.

Determinism: both codecs are deterministic for a fixed level, the shuffle
filter is a pure permutation, the dictionary filter is built by ``np.unique``
(deterministic sort order over bit patterns), and chunk boundaries depend only
on the element count — two same-seed builds therefore still produce
byte-identical compressed artifacts (the PR 3 contract).
"""

from __future__ import annotations

import lzma
import zlib
from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import ArtifactError

CODECS: Tuple[str, ...] = ("zlib", "lzma")
"""Supported chunk codecs (both from the standard library)."""

DEFAULT_CODEC = "zlib"
"""Codec used when compression is requested without an explicit choice."""

DEFAULT_LEVELS: Dict[str, int] = {"zlib": 6, "lzma": 1}
"""Default effort per codec: zlib-6 is the ratio/speed sweet spot for the
numeric columns; lzma preset 1 already beats zlib on the pickle payload while
staying fast enough for million-object builds on one core."""

DEFAULT_CHUNK_ELEMS = 1 << 16
"""Elements per chunk (64 Ki): 512 KiB per float64 chunk — large enough for
the codec to find structure, small enough that a point lookup never inflates
more than half a megabyte."""

DEFAULT_CACHE_CHUNKS = 32
"""Per-column LRU capacity, in chunks (≈16 MiB of float64 at the default
chunk size) — covers the hot postings ranges of a keyword workload."""


def _shuffle(raw: bytes, itemsize: int) -> bytes:
    """Byte-shuffle filter: group byte k of every element together."""
    if itemsize <= 1 or not raw:
        return raw
    return np.frombuffer(raw, dtype=np.uint8).reshape(-1, itemsize).T.tobytes()


def _unshuffle(shuffled: bytes, itemsize: int) -> bytes:
    if itemsize <= 1 or not shuffled:
        return shuffled
    return np.frombuffer(shuffled, dtype=np.uint8).reshape(itemsize, -1).T.tobytes()


# One-byte filter tag leading every decompressed chunk body.
_MODE_RAW = 0        # body is the raw array bytes
_MODE_SHUFFLE = 1    # body is byte-shuffled raw bytes
_MODE_DICT8 = 2      # body is [uint32 n][n unique elements][uint8 indices]
_MODE_DICT16 = 3     # body is [uint32 n][n unique elements][shuffled uint16 indices]

_DICT_VIEWS = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}


def _dict_encode(raw: bytes, itemsize: int) -> "bytes | None":
    """Value-dictionary filter: unique bit patterns + small integer indices.

    Returns ``None`` when the chunk has too many distinct values (or an
    unsupported element width) for the dictionary to pay off. Uniquing runs on
    unsigned-integer views of the element bit patterns, so float columns —
    including NaN payloads — round-trip bit-exactly.
    """
    view_dtype = _DICT_VIEWS.get(itemsize)
    if view_dtype is None or len(raw) < 2 * itemsize:
        return None
    elements = np.frombuffer(raw, dtype=view_dtype)
    unique, inverse = np.unique(elements, return_inverse=True)
    if len(unique) > 0xFFFF:
        return None
    if len(unique) > 0xFF:
        mode, indices = _MODE_DICT16, inverse.astype("<u2")
        index_bytes = _shuffle(indices.tobytes(), 2)
    else:
        mode, indices = _MODE_DICT8, inverse.astype(np.uint8)
        index_bytes = indices.tobytes()
    encoded = (
        bytes([mode])
        + np.array(len(unique), dtype="<u4").tobytes()
        + unique.tobytes()
        + index_bytes
    )
    if len(encoded) >= len(raw):
        return None
    return encoded


def encode_chunk(
    raw: bytes, itemsize: int, codec: str, level: int, shuffle: bool
) -> Tuple[bytes, int]:
    """Compress one chunk's raw array bytes.

    With ``shuffle`` enabled the chunk goes through the better of the two
    filters for its content — the value dictionary when the chunk is
    low-cardinality, the byte-shuffle otherwise; the chosen filter is recorded
    in the body's leading mode byte so :func:`decode_chunk` self-describes.

    Returns:
        ``(payload, crc32)`` — the compressed payload and the CRC-32 of the
        *raw* (pre-filter) bytes, which :func:`decode_chunk` re-checks.
    """
    if codec not in CODECS:
        raise ArtifactError(f"unknown chunk codec {codec!r} (supported: {CODECS})")
    crc = zlib.crc32(raw)
    body = None
    if shuffle:
        body = _dict_encode(raw, itemsize)
        if body is None:
            body = bytes([_MODE_SHUFFLE]) + _shuffle(raw, itemsize)
    else:
        body = bytes([_MODE_RAW]) + raw
    if codec == "zlib":
        payload = zlib.compress(body, level)
    else:
        payload = lzma.compress(body, preset=level)
    return payload, crc


def _dict_decode(body: bytes, itemsize: int, mode: int, context: str) -> bytes:
    view_dtype = _DICT_VIEWS.get(itemsize)
    if view_dtype is None or len(body) < 4:
        raise ArtifactError(f"corrupt dictionary chunk in {context}")
    count = int(np.frombuffer(body[:4], dtype="<u4")[0])
    table_end = 4 + count * itemsize
    unique = np.frombuffer(body[4:table_end], dtype=view_dtype)
    if len(unique) != count:
        raise ArtifactError(f"corrupt dictionary chunk in {context}")
    index_bytes = body[table_end:]
    if mode == _MODE_DICT16:
        index_bytes = _unshuffle(index_bytes, 2)
        indices = np.frombuffer(index_bytes, dtype="<u2")
    else:
        indices = np.frombuffer(index_bytes, dtype=np.uint8)
    if len(indices) and indices.max(initial=0) >= count:
        raise ArtifactError(f"corrupt dictionary chunk in {context}")
    return unique[indices].tobytes()


def decode_chunk(
    payload: bytes,
    itemsize: int,
    codec: str,
    shuffle: bool,
    expected_crc: int,
    context: str,
) -> bytes:
    """Decompress one chunk, undo its filter, and verify its CRC-32.

    The ``shuffle`` flag is advisory (it records the build-time policy); the
    decode path dispatches on the body's own mode byte.

    Raises:
        ArtifactError: If the payload is not a valid stream for ``codec``, the
            filter body is malformed, or the decoded bytes do not hash to
            ``expected_crc`` (chunk-level corruption that per-file checksum
            verification may have skipped).
    """
    try:
        if codec == "zlib":
            body = zlib.decompress(payload)
        elif codec == "lzma":
            body = lzma.decompress(payload)
        else:
            raise ArtifactError(f"unknown chunk codec {codec!r} in {context}")
    except (zlib.error, lzma.LZMAError) as exc:
        raise ArtifactError(f"corrupt compressed chunk in {context}: {exc}") from exc
    if not body:
        raise ArtifactError(f"corrupt compressed chunk in {context}: empty body")
    mode, body = body[0], body[1:]
    if mode == _MODE_RAW:
        raw = body
    elif mode == _MODE_SHUFFLE:
        raw = _unshuffle(body, itemsize)
    elif mode in (_MODE_DICT8, _MODE_DICT16):
        raw = _dict_decode(body, itemsize, mode, context)
    else:
        raise ArtifactError(f"unknown chunk filter mode {mode} in {context}")
    actual = zlib.crc32(raw)
    if actual != expected_crc:
        raise ArtifactError(
            f"chunk checksum mismatch in {context}: stored crc32 "
            f"{expected_crc:#010x}, decoded bytes hash to {actual:#010x} "
            f"(artifact corrupted or tampered with)"
        )
    return raw


class CompressingWriter:
    """File-like sink that compresses everything written through it.

    Lets ``pickle.dump`` stream straight into a compressed file: the pickler's
    writes pass through an incremental codec into the underlying handle, so the
    full pickle byte string is never materialised in memory (the old
    ``pickle.dumps`` path held a second full copy of the index during save).
    Also used with ``codec=None`` as a plain counting pass-through, so every
    save path reports how many raw bytes it serialised.
    """

    def __init__(self, handle, codec: "str | None", level: int = 0) -> None:
        self._handle = handle
        self.raw_bytes = 0
        if codec is None:
            self._compressor = None
        elif codec == "zlib":
            self._compressor = zlib.compressobj(level)
        elif codec == "lzma":
            self._compressor = lzma.LZMACompressor(preset=level)
        else:
            raise ArtifactError(f"unknown codec {codec!r} (supported: {CODECS})")

    def write(self, data) -> int:
        view = memoryview(data)
        self.raw_bytes += view.nbytes
        if self._compressor is None:
            self._handle.write(view)
        else:
            self._handle.write(self._compressor.compress(view))
        return view.nbytes

    def finish(self) -> None:
        """Flush the codec's trailing block (no-op for the pass-through)."""
        if self._compressor is not None:
            self._handle.write(self._compressor.flush())


def decompress_bytes(data: bytes, codec: str, context: str) -> bytes:
    """Decompress a whole-file payload written through :class:`CompressingWriter`."""
    try:
        if codec == "zlib":
            return zlib.decompress(data)
        if codec == "lzma":
            return lzma.decompress(data)
    except (zlib.error, lzma.LZMAError) as exc:
        raise ArtifactError(f"corrupt compressed payload in {context}: {exc}") from exc
    raise ArtifactError(f"unknown codec {codec!r} in {context}")


def _rebuild_plain(array: np.ndarray) -> np.ndarray:
    """Pickle helper: a :class:`ChunkedColumn` unpickles as a plain ndarray."""
    array.flags.writeable = False
    return array


class ChunkedColumn(np.lib.mixins.NDArrayOperatorsMixin):
    """Read-only, lazily-decoded view of one chunk-compressed column.

    Behaves like a 1-D numpy array for every access pattern the scoring and
    pruning kernels use: ``len`` / ``shape`` / ``dtype``, integer and
    contiguous-slice indexing (decoding only the overlapping chunks through the
    LRU cache), fancy/boolean indexing, and ufuncs and the arithmetic /
    comparison / bitwise operators (via a cached full materialisation; the
    results are plain ndarrays). Pickling materialises to a plain ndarray, so
    pickled consumers (worker processes, the service instance cache) are
    self-contained — mirroring how read-only memory maps materialise on pickle.

    Args:
        path: The zip container file the chunk payloads live in.
        name: Column name (for error messages).
        dtype: Element dtype.
        length: Total element count.
        chunk_elems: Elements per chunk (the last chunk may be shorter).
        codec: Chunk codec name (see :data:`CODECS`).
        shuffle: Whether the byte-shuffle filter was applied before encoding.
        chunks: Per-chunk ``(file_offset, payload_size, crc32)`` triples.
        cache_chunks: LRU capacity in chunks.
    """

    def __init__(
        self,
        path: Union[str, Path],
        name: str,
        dtype: np.dtype,
        length: int,
        chunk_elems: int,
        codec: str,
        shuffle: bool,
        chunks: Sequence[Tuple[int, int, int]],
        cache_chunks: int = DEFAULT_CACHE_CHUNKS,
    ) -> None:
        if chunk_elems < 1:
            raise ArtifactError(f"chunk_elems must be positive, got {chunk_elems}")
        expected = (length + chunk_elems - 1) // chunk_elems if length else 0
        if expected != len(chunks):
            raise ArtifactError(
                f"column {name!r}: {len(chunks)} chunks recorded but "
                f"{expected} expected for {length} elements"
            )
        self._path = Path(path)
        self._name = name
        self._dtype = np.dtype(dtype)
        self._length = int(length)
        self._chunk_elems = int(chunk_elems)
        self._codec = codec
        self._shuffle = bool(shuffle)
        self._chunks = [tuple(int(v) for v in chunk) for chunk in chunks]
        self._cache: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self._cache_chunks = max(1, int(cache_chunks))
        self._full: "np.ndarray | None" = None

    # ------------------------------------------------------------------ shape facts
    @property
    def dtype(self) -> np.dtype:
        return self._dtype

    @property
    def shape(self) -> Tuple[int, ...]:
        return (self._length,)

    @property
    def ndim(self) -> int:
        return 1

    @property
    def size(self) -> int:
        return self._length

    @property
    def nbytes(self) -> int:
        return self._length * self._dtype.itemsize

    @property
    def codec(self) -> str:
        return self._codec

    @property
    def flags(self):
        """Flags of the materialised array (always read-only)."""
        return self._materialize().flags

    def __len__(self) -> int:
        return self._length

    # ------------------------------------------------------------------ decoding
    def _decode(self, index: int) -> np.ndarray:
        offset, payload_size, crc = self._chunks[index]
        with open(self._path, "rb") as handle:
            handle.seek(offset)
            payload = handle.read(payload_size)
        if len(payload) != payload_size:
            raise ArtifactError(
                f"truncated chunk {index} of column {self._name!r} in {self._path.name}"
            )
        raw = decode_chunk(
            payload,
            self._dtype.itemsize,
            self._codec,
            self._shuffle,
            crc,
            context=f"{self._path.name}:{self._name}[chunk {index}]",
        )
        array = np.frombuffer(raw, dtype=self._dtype)
        array.flags.writeable = False
        return array

    def _chunk(self, index: int) -> np.ndarray:
        cached = self._cache.get(index)
        if cached is not None:
            self._cache.move_to_end(index)
            return cached
        array = self._decode(index)
        self._cache[index] = array
        if len(self._cache) > self._cache_chunks:
            self._cache.popitem(last=False)
        return array

    def _materialize(self) -> np.ndarray:
        """Decode the whole column once and cache it (read-only)."""
        if self._full is None:
            if not self._chunks:
                full = np.empty(0, dtype=self._dtype)
            else:
                full = np.concatenate(
                    [self._chunk(k) for k in range(len(self._chunks))]
                )
            full.flags.writeable = False
            self._full = full
            self._cache.clear()  # the full copy supersedes the chunk cache
        return self._full

    # ------------------------------------------------------------------ array protocol
    def __array__(self, dtype=None, copy=None):
        full = self._materialize()
        if dtype is not None and np.dtype(dtype) != self._dtype:
            return full.astype(dtype)
        if copy:
            return full.copy()
        return full

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            index = int(key)
            if index < 0:
                index += self._length
            if not 0 <= index < self._length:
                raise IndexError(
                    f"index {key} out of range for column of length {self._length}"
                )
            chunk = self._chunk(index // self._chunk_elems)
            return chunk[index % self._chunk_elems]
        if isinstance(key, slice) and key.step in (None, 1):
            start, stop, _ = key.indices(self._length)
            if start >= stop:
                return np.empty(0, dtype=self._dtype)
            if self._full is not None:
                return self._full[start:stop]
            first = start // self._chunk_elems
            last = (stop - 1) // self._chunk_elems
            if first == last:
                base = first * self._chunk_elems
                return self._chunk(first)[start - base : stop - base]
            parts: List[np.ndarray] = []
            for index in range(first, last + 1):
                base = index * self._chunk_elems
                chunk = self._chunk(index)
                parts.append(chunk[max(start - base, 0) : stop - base])
            out = np.concatenate(parts)
            out.flags.writeable = False
            return out
        # Fancy / boolean / strided indexing: decode once, then defer to numpy.
        return self._materialize()[key]

    def astype(self, dtype, **kwargs) -> np.ndarray:
        return self._materialize().astype(dtype, **kwargs)

    def tolist(self) -> list:
        return self._materialize().tolist()

    def copy(self) -> np.ndarray:
        return self._materialize().copy()

    def __iter__(self):
        return iter(self._materialize())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ChunkedColumn({self._name!r}, dtype={self._dtype}, "
            f"len={self._length}, chunks={len(self._chunks)}, codec={self._codec})"
        )

    # ------------------------------------------------------------------ operators
    # NDArrayOperatorsMixin routes every Python operator through a ufunc, and
    # every ufunc lands here: chunked inputs materialise once, and the result
    # is the plain ndarray the same ufunc gives on the decoded column.
    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        inputs = tuple(
            value._materialize() if isinstance(value, ChunkedColumn) else value
            for value in inputs
        )
        return getattr(ufunc, method)(*inputs, **kwargs)

    __hash__ = None  # array-likes with element-wise __eq__ are unhashable

    # ------------------------------------------------------------------ pickling
    def __reduce__(self):
        # Materialise on pickle: consumers of a pickled column (worker
        # processes, the QueryService instance cache) get a self-contained
        # plain ndarray, exactly like pickled memory maps do.
        return (_rebuild_plain, (np.array(self._materialize()),))
