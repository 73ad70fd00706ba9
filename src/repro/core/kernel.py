"""Build, cache and call the solvers' compiled loops (``kernel.c``).

:func:`load` compiles the C source once per source, platform and flag set into
the package's ``__pycache__`` directory, under a name keyed by a hash of them, and
publishes the library by an atomic rename, so concurrent first imports each
load a complete library and later imports only load it. Where that directory
cannot be written, as in a read-only install, the library is built into a
private temporary directory that lives as long as the process. Importing this
module loads the one library both solvers call, :data:`LIBRARY`; where it
cannot be built, the import raises :class:`ImportError` naming the compiler
command and quoting what the compiler printed.

Each call runs on a :class:`~repro.core.dense.DenseInstance`'s arrays.
:meth:`Kernel.tgen_solve` runs one whole TGEN traversal and returns the
incumbent and the ranked top-k tuples as parent-linked dense tuples, which
:func:`~repro.core.tgen._materialise` turns into region tuples.
:meth:`Kernel.greedy_grow` grows one Greedy region and returns its positions.
Neither reads the substrate's Python list mirrors.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import subprocess
import sysconfig
import tempfile
import threading
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.tuples import EPS

SOURCE = Path(__file__).with_name("kernel.c")
CACHE_DIR = Path(__file__).with_name("__pycache__")
COMPILER = "cc"
#: No contraction and no fast-math: every double operation rounds as
#: CPython's does, which keeps the kernel's floats bit-equal to the
#: reference twins' (:mod:`repro.core.reference`).
CFLAGS = ("-std=c99", "-O2", "-ffp-contract=off", "-fPIC", "-shared")
COMPILE_TIMEOUT_S = 120

_POLL = ctypes.CFUNCTYPE(ctypes.c_int)
#: An array the caller owns, passed as its address (``ndarray.ctypes.data``,
#: which costs less per call than a typed ``data_as`` cast).
_ADDRESS = ctypes.c_void_p


class _Input(ctypes.Structure):
    _fields_ = [
        ("n", ctypes.c_int32),
        ("indptr", _ADDRESS),
        ("indices", _ADDRESS),
        ("lengths", _ADDRESS),
        ("sigma", _ADDRESS),
        ("scaled", _ADDRESS),
        ("seeds", _ADDRESS),
        ("delta", ctypes.c_double),
        ("delta_eps", ctypes.c_double),
        ("eps", ctypes.c_double),
        ("max_tuples", ctypes.c_int32),
        ("by_length", ctypes.c_int32),
        ("top_k", ctypes.c_int32),
        ("pool_size", ctypes.c_int32),
        ("expired", _POLL),
    ]


class _Row(ctypes.Structure):
    _fields_ = [
        ("length", ctypes.c_double),
        ("weight", ctypes.c_double),
        ("scaled", ctypes.c_int64),
        ("left", ctypes.c_int32),
        ("right", ctypes.c_int32),
        ("u", ctypes.c_int32),
        ("v", ctypes.c_int32),
    ]


#: A forest row as NumPy reads it.
_ROW = np.dtype(_Row)


class _Output(ctypes.Structure):
    _fields_ = [
        ("tuples_generated", ctypes.c_int64),
        ("edges_processed", ctypes.c_int64),
        ("edges_skipped", ctypes.c_int64),
        ("expired", ctypes.c_int32),
        ("ranked", ctypes.c_int32),
        ("rows", ctypes.c_int32),
        ("roots", _ADDRESS),
        ("forest", ctypes.POINTER(_Row)),
    ]


class _GreedyInput(ctypes.Structure):
    _fields_ = [
        ("n", ctypes.c_int32),
        ("indptr", _ADDRESS),
        ("indices", _ADDRESS),
        ("lengths", _ADDRESS),
        ("sigma", _ADDRESS),
        ("ids", _ADDRESS),
        ("relevant", _ADDRESS),
        ("nrelevant", ctypes.c_int32),
        ("excluded", _ADDRESS),
        ("mu", ctypes.c_double),
        ("tau_max", ctypes.c_double),
        ("delta_eps", ctypes.c_double),
        ("expired", _POLL),
    ]


class _GreedyOutput(ctypes.Structure):
    _fields_ = [
        ("scanned", ctypes.c_int64),
        ("compacted", ctypes.c_int64),
        ("length", ctypes.c_double),
        ("expired", ctypes.c_int32),
        ("size", ctypes.c_int32),
        ("positions", _ADDRESS),
        ("attached", _ADDRESS),
    ]


class Grown(NamedTuple):
    """One region :meth:`Kernel.greedy_grow` grew."""

    #: The region's positions, in the order they joined.
    positions: np.ndarray
    #: The member each position joined through; the seed's entry is -1.
    attached: np.ndarray
    length: float
    expired: bool
    scanned: int
    compacted: int


class Kernel:
    """The loaded kernel library: one :meth:`tgen_solve` call per TGEN solve
    and one :meth:`greedy_grow` call per grown Greedy region."""

    def __init__(self, library: Path) -> None:
        self.path = library
        lib = ctypes.CDLL(str(library))
        self._solve = lib.tgen_solve
        self._solve.argtypes = [ctypes.POINTER(_Input), ctypes.POINTER(_Output)]
        self._solve.restype = ctypes.c_int
        self._free = lib.tgen_free
        self._free.argtypes = [ctypes.POINTER(_Row)]
        self._free.restype = None
        self._grow = lib.greedy_grow
        self._grow.argtypes = [ctypes.POINTER(_GreedyInput), ctypes.POINTER(_GreedyOutput)]
        self._grow.restype = ctypes.c_int

    def tgen_solve(
        self,
        dense: Any,
        scaled: np.ndarray,
        seeds: np.ndarray,
        delta: float,
        max_tuples: Optional[int],
        by_length: bool,
        top_k: int,
        pool_size: int,
        budget: Any,
    ) -> Tuple[Tuple[Any, ...], List[Tuple[Any, ...]], Dict[str, float], Dict[int, int]]:
        """Run TGEN's traversal (:meth:`TGENSolver._run`) on ``dense``.

        Returns the incumbent, the ranked top-k tuples (none when ``top_k`` is
        0), the solver counters, and a map from each position those tuples
        name to its node id. A tuple is ``(length, weight, scaled, left,
        right, u, v)``: a combined tuple links its two parents and joins them
        through the edge ``(u, v)``; a singleton has no parents and ``u == v``
        is its position.

        Raises:
            ValueError: If the arrays do not describe a CSR graph over the
                window positions.
            MemoryError: If the kernel runs out of memory.
        """
        indptr, indices, lengths, sigma = _csr_arrays(dense)
        n = sigma.shape[0]
        scaled = np.ascontiguousarray(scaled, dtype=np.int64)
        seeds = np.ascontiguousarray(seeds, dtype=np.int32)
        if not (
            scaled.shape == seeds.shape == (n,)
            and (0 <= seeds.min() and seeds.max() < n)
        ):
            raise ValueError("the dense arrays do not form a CSR graph over the window")
        roots = np.empty(1 + top_k, dtype=np.int32)
        raised: List[BaseException] = []
        # The callback must outlive the call; it re-enters the interpreter.
        poll = _budget_poll(budget, raised)
        arguments = _Input(
            n, indptr.ctypes.data, indices.ctypes.data,
            lengths.ctypes.data, sigma.ctypes.data,
            scaled.ctypes.data, seeds.ctypes.data,
            delta, delta + 1e-12, EPS, max_tuples or 0, by_length, top_k, pool_size,
            poll,
        )
        out = _Output(roots=roots.ctypes.data)
        if self._solve(ctypes.byref(arguments), ctypes.byref(out)) != 0:
            raise MemoryError("the TGEN kernel ran out of memory")
        try:
            if raised:
                raise raised[0]
            # A copy through bytes: np.ctypeslib.as_array would build a ctypes
            # array type per row count, which ctypes caches for good.
            table = np.frombuffer(
                ctypes.string_at(out.forest, out.rows * _ROW.itemsize), dtype=_ROW
            )
            ends = np.unique(np.concatenate((table["u"], table["v"])))
            ids = dict(zip(ends.tolist(), dense.ids[ends].tolist()))
            rows = table.tolist()
        finally:
            self._free(out.forest)
        built: List[Tuple[Any, ...]] = []
        for length, weight, scaled_weight, left, right, u, v in rows:
            built.append((
                length, weight, scaled_weight,
                built[left] if left >= 0 else None,
                built[right] if right >= 0 else None,
                u, v,
            ))
        stats: Dict[str, float] = {"budget_expired": 1.0} if out.expired else {}
        stats["tuples_generated"] = float(out.tuples_generated)
        stats["edges_processed"] = float(out.edges_processed)
        stats["edges_skipped"] = float(out.edges_skipped)
        picked = roots[: 1 + out.ranked].tolist()
        return built[picked[0]], [built[row] for row in picked[1:]], stats, ids

    def greedy_grow(
        self,
        dense: Any,
        mu: float,
        delta: float,
        excluded: bytearray,
        budget: Any,
    ) -> Optional[Grown]:
        """Grow one Greedy region on ``dense``, avoiding the positions
        ``excluded`` marks.

        Returns ``None`` when no region grows: no relevant position is
        available, or their largest σ is not positive.

        Raises:
            ValueError: If the arrays do not describe a CSR graph over the
                window positions, or ``excluded`` is not one byte per
                position.
            MemoryError: If the kernel runs out of memory.
        """
        if dense.relevant_order.size == 0:
            return None
        indptr, indices, lengths, sigma = _csr_arrays(dense)
        n = sigma.shape[0]
        ids = np.ascontiguousarray(dense.ids, dtype=np.int64)
        relevant = np.ascontiguousarray(dense.relevant_order, dtype=np.int32)
        if not (ids.shape == (n,) and 0 <= relevant.min() and relevant.max() < n):
            raise ValueError("the dense arrays do not form a CSR graph over the window")
        if len(excluded) != n:
            raise ValueError(
                f"the exclusion mask has {len(excluded)} bytes for {n} window positions"
            )
        mask = np.frombuffer(excluded, dtype=np.uint8)
        grown = np.empty(2 * n, dtype=np.int32)
        raised: List[BaseException] = []
        poll = _budget_poll(budget, raised)
        arguments = _GreedyInput(
            n, indptr.ctypes.data, indices.ctypes.data,
            lengths.ctypes.data, sigma.ctypes.data,
            ids.ctypes.data, relevant.ctypes.data, relevant.size,
            mask.ctypes.data, mu, dense.tau_max or 1.0, delta + 1e-12, poll,
        )
        out = _GreedyOutput(
            positions=grown.ctypes.data,
            attached=grown[n:].ctypes.data,
        )
        if self._grow(ctypes.byref(arguments), ctypes.byref(out)) != 0:
            raise MemoryError("the Greedy kernel ran out of memory")
        if raised:
            raise raised[0]
        if out.size == 0:
            return None
        return Grown(
            grown[: out.size], grown[n : n + out.size], out.length, bool(out.expired),
            out.scanned, out.compacted,
        )


def _csr_arrays(dense: Any) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``dense``'s ``(indptr, indices, lengths, sigma)``, contiguous, once
    checked to describe a CSR graph over its window positions.

    Raises:
        ValueError: If they do not.
    """
    n = dense.num_nodes
    indptr = np.ascontiguousarray(dense.indptr, dtype=np.int32)
    indices = np.ascontiguousarray(dense.indices, dtype=np.int32)
    lengths = np.ascontiguousarray(dense.lengths, dtype=np.float64)
    sigma = np.ascontiguousarray(dense.sigma, dtype=np.float64)
    nnz = indices.shape[0]
    if not (
        n >= 1
        and indptr.shape == (n + 1,)
        and sigma.shape == (n,)
        and lengths.shape == (nnz,)
        and indptr[0] == 0
        and indptr[n] == nnz
        and (np.diff(indptr) >= 0).all()
        and (nnz == 0 or (0 <= indices.min() and indices.max() < n))
    ):
        raise ValueError("the dense arrays do not form a CSR graph over the window")
    return indptr, indices, lengths, sigma


def _budget_poll(budget: Any, raised: List[BaseException]) -> Any:
    """The kernel's poll of ``budget`` (a null callback for no budget).

    ctypes would print and drop an exception raised in a callback, so one
    raised by ``budget.expired()`` is appended to ``raised``, for the caller
    to raise once the call returns, and stops the loop as an expiry does. The
    caller holds the callback until the call returns.
    """
    if budget is None:
        return _POLL()

    def expired() -> bool:
        try:
            return bool(budget.expired())
        except BaseException as exc:
            raised.append(exc)
            return True

    return _POLL(expired)


#: Private build directories of this process, each removed when it exits.
_PRIVATE: List[tempfile.TemporaryDirectory] = []


def load(cache_dir: Path = CACHE_DIR, compiler: str = COMPILER) -> Kernel:
    """Load the kernel, compiling it first if no library of this source and
    these flags is cached in ``cache_dir``: into ``cache_dir``, or, where that
    cannot be written, into a private temporary directory that lives as long
    as the process.

    Raises:
        ImportError: If the library cannot be built or loaded. A failed build
            names the compiler command and quotes what it printed.
    """
    command = [compiler, *CFLAGS]
    try:
        digest = hashlib.sha256(SOURCE.read_bytes())
    except OSError as exc:
        raise ImportError(f"cannot read the solver kernel's source: {exc}") from exc
    digest.update("\0".join([sysconfig.get_platform(), *command]).encode("utf-8"))
    library = cache_dir / f"kernel-{digest.hexdigest()[:16]}.so"
    if not library.is_file():
        library = _compile(command, library)
    try:
        return Kernel(library)
    except OSError as exc:
        raise ImportError(f"cannot load the solver kernel {library}: {exc}") from exc


def _compile(command: List[str], library: Path) -> Path:
    """Compile the source to ``library`` through a private temporary file
    and an atomic rename, or, where its directory cannot be written, into a
    private temporary directory; return where the library was built.

    Raises:
        ImportError: If the compiler cannot start, fails or times out, or the
            library cannot be published.
    """
    try:
        library.parent.mkdir(parents=True, exist_ok=True)
        writable = os.access(library.parent, os.W_OK)
    except OSError:
        writable = False
    if not writable:
        private = tempfile.TemporaryDirectory(prefix="repro-kernel-")
        _PRIVATE.append(private)
        library = Path(private.name) / library.name
    staging = library.with_name(
        f"{library.name}.{os.getpid()}.{threading.get_ident()}.tmp"
    )
    full = [*command, "-o", str(staging), str(SOURCE)]
    failed = f"the solver kernel did not build: `{shlex.join(full)}`"
    try:
        try:
            done = subprocess.run(
                full, capture_output=True, text=True, timeout=COMPILE_TIMEOUT_S
            )
        except OSError as exc:
            raise ImportError(f"{failed} could not start: {exc}") from exc
        except subprocess.TimeoutExpired as exc:
            raise ImportError(f"{failed} ran over {COMPILE_TIMEOUT_S} s") from exc
        if done.returncode != 0:
            raise ImportError(
                f"{failed} exited with status {done.returncode}:\n"
                f"{done.stderr.strip() or '(no output)'}"
            )
        try:
            os.replace(staging, library)
        except OSError as exc:
            raise ImportError(f"{failed} built, but not into {library}: {exc}") from exc
    finally:
        try:
            staging.unlink(missing_ok=True)
        except OSError:
            pass
    return library


#: The one library both solvers call.
LIBRARY = load()


def describe() -> str:
    """The path of the compiled library the solvers call."""
    return str(LIBRARY.path)
