"""Build, cache and call the solvers' compiled loops (``kernel.c``).

:func:`load` compiles the C source once per source, platform and flag set into
the package's ``__pycache__`` directory, under a name keyed by a hash of them, and
publishes the library by an atomic rename, so concurrent first imports each
load a complete library and later imports only load it. Importing this module
loads the one library both solvers call, :data:`LIBRARY`. Where no compiler
runs, or the cache cannot be written, it is ``None``, :data:`FALLBACK` says
why, and :class:`~repro.core.tgen.TGENSolver` and
:class:`~repro.core.greedy.GreedySolver` run their Python loops, which give
the same answers.

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
import subprocess
import sysconfig
import threading
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.tuples import EPS

SOURCE = Path(__file__).with_name("kernel.c")
CACHE_DIR = Path(__file__).with_name("__pycache__")
COMPILER = "cc"
#: No contraction and no fast-math: every double operation rounds as
#: CPython's does, which keeps the kernel's floats bit-equal to the loops'.
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
        """Run the traversal of :meth:`TGENSolver._run_dense` on ``dense``.

        Returns the incumbent, the ranked top-k tuples (none when ``top_k`` is
        0) and the solver counters, as the Python loop does, and a map from
        each position those tuples name to its node id.

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
                length, weight, scaled_weight, None,
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
        """Grow one region as :meth:`GreedySolver._grow_dense` does on
        ``dense``, avoiding the positions ``excluded`` marks.

        Returns ``None`` where the Python loop returns ``None``: no relevant
        position is available, or their largest σ is not positive.

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


def load(
    cache_dir: Path = CACHE_DIR, compiler: str = COMPILER
) -> Tuple[Optional[Kernel], str]:
    """Load the kernel, compiling it into ``cache_dir`` first if no library
    of this source and these flags is cached there.

    Returns:
        The kernel and ``""``, or ``None`` and why the Python loops run
        instead: ``no compiler``, ``compile error``, ``cache not writable``,
        ``load error`` or ``no kernel source``.
    """
    command = [compiler, *CFLAGS]
    try:
        digest = hashlib.sha256(SOURCE.read_bytes())
    except OSError:
        return None, f"no kernel source: {SOURCE}"
    digest.update("\0".join([sysconfig.get_platform(), *command]).encode("utf-8"))
    library = cache_dir / f"kernel-{digest.hexdigest()[:16]}.so"
    if not library.is_file():
        reason = _compile(command, library)
        if reason is not None:
            return None, reason
    try:
        return Kernel(library), ""
    except OSError as exc:
        return None, f"load error: {exc}"


def _compile(command: List[str], library: Path) -> Optional[str]:
    """Compile the source to ``library`` through a private temporary file
    and an atomic rename; return why it failed, or ``None``."""
    try:
        library.parent.mkdir(parents=True, exist_ok=True)
    except OSError:
        return "cache not writable"
    if not os.access(library.parent, os.W_OK):
        return "cache not writable"
    staging = library.with_name(
        f"{library.name}.{os.getpid()}.{threading.get_ident()}.tmp"
    )
    try:
        try:
            done = subprocess.run(
                [*command, "-o", str(staging), str(SOURCE)],
                capture_output=True, text=True, timeout=COMPILE_TIMEOUT_S,
            )
        except OSError:
            return f"no compiler: {command[0]}"
        except subprocess.TimeoutExpired:
            return "compile error: timed out"
        if done.returncode != 0:
            first = (done.stderr.strip().splitlines() or ["no output"])[0]
            return f"compile error: {first}"
        try:
            os.replace(staging, library)
        except OSError:
            return "cache not writable"
    finally:
        try:
            staging.unlink(missing_ok=True)
        except OSError:
            pass
    return None


#: The one library both solvers call, or ``None`` where it could not be
#: built; then :data:`FALLBACK` says why and the solvers run their Python loops.
LIBRARY, FALLBACK = load()


def describe() -> str:
    """The compiled library the solvers call, or ``python`` and why their
    Python loops run instead."""
    if LIBRARY is not None:
        return str(LIBRARY.path)
    return f"python ({FALLBACK})"
