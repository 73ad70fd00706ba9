"""Build, cache and call TGEN's compiled tuple loop (``tgen_kernel.c``).

:func:`load` compiles the C source once per source, platform and flag set into
the package's ``__pycache__`` directory, under a name keyed by a hash of them, and
publishes the library by an atomic rename, so concurrent first imports each
load a complete library and later imports only load it. Where no compiler
runs, or the cache cannot be written, it returns ``None`` and the reason, and
:class:`~repro.core.tgen.TGENSolver` runs its Python loop, which gives the
same answers.

:meth:`Kernel.solve` runs one whole TGEN traversal in one call on a
:class:`~repro.core.dense.DenseInstance`'s arrays and returns the incumbent
and the ranked top-k tuples as parent-linked dense tuples, which
:func:`~repro.core.tgen._materialise` turns into region tuples.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import sysconfig
import threading
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.tuples import EPS

SOURCE = Path(__file__).with_name("tgen_kernel.c")
CACHE_DIR = Path(__file__).with_name("__pycache__")
COMPILER = "cc"
#: No contraction and no fast-math: every double operation rounds as
#: CPython's does, which keeps the kernel's floats bit-equal to the loop's.
CFLAGS = ("-std=c99", "-O2", "-ffp-contract=off", "-fPIC", "-shared")
COMPILE_TIMEOUT_S = 120

_POLL = ctypes.CFUNCTYPE(ctypes.c_int)
_I32 = ctypes.POINTER(ctypes.c_int32)
_F64 = ctypes.POINTER(ctypes.c_double)
_I64 = ctypes.POINTER(ctypes.c_int64)


class _Input(ctypes.Structure):
    _fields_ = [
        ("n", ctypes.c_int32),
        ("indptr", _I32),
        ("indices", _I32),
        ("lengths", _F64),
        ("sigma", _F64),
        ("scaled", _I64),
        ("seeds", _I32),
        ("delta", ctypes.c_double),
        ("delta_eps", ctypes.c_double),
        ("eps", ctypes.c_double),
        ("max_tuples", ctypes.c_int32),
        ("by_length", ctypes.c_int32),
        ("prune", ctypes.c_int32),
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


class _Output(ctypes.Structure):
    _fields_ = [
        ("tuples_generated", ctypes.c_int64),
        ("edges_processed", ctypes.c_int64),
        ("edges_skipped", ctypes.c_int64),
        ("expired", ctypes.c_int32),
        ("ranked", ctypes.c_int32),
        ("rows", ctypes.c_int32),
        ("roots", _I32),
        ("forest", ctypes.POINTER(_Row)),
    ]


class Kernel:
    """A loaded kernel library: one :meth:`solve` call per TGEN solve."""

    def __init__(self, library: Path) -> None:
        self.path = library
        lib = ctypes.CDLL(str(library))
        self._solve = lib.tgen_solve
        self._solve.argtypes = [ctypes.POINTER(_Input), ctypes.POINTER(_Output)]
        self._solve.restype = ctypes.c_int
        self._free = lib.tgen_free
        self._free.argtypes = [ctypes.POINTER(_Row)]
        self._free.restype = None

    def solve(
        self,
        dense: Any,
        scaled: np.ndarray,
        seeds: np.ndarray,
        delta: float,
        max_tuples: Optional[int],
        by_length: bool,
        prune: bool,
        top_k: int,
        pool_size: int,
        budget: Any,
    ) -> Tuple[Tuple[Any, ...], List[Tuple[Any, ...]], Dict[str, float]]:
        """Run the traversal of :meth:`TGENSolver._run_dense` on ``dense``.

        Returns the incumbent, the ranked top-k tuples (none when ``top_k`` is
        0) and the solver counters, as the Python loop does.

        Raises:
            ValueError: If the arrays do not describe a CSR graph over the
                window positions.
            MemoryError: If the kernel runs out of memory.
        """
        n = dense.num_nodes
        indptr = np.ascontiguousarray(dense.indptr, dtype=np.int32)
        indices = np.ascontiguousarray(dense.indices, dtype=np.int32)
        lengths = np.ascontiguousarray(dense.lengths, dtype=np.float64)
        sigma = np.ascontiguousarray(dense.sigma, dtype=np.float64)
        scaled = np.ascontiguousarray(scaled, dtype=np.int64)
        seeds = np.ascontiguousarray(seeds, dtype=np.int32)
        nnz = indices.shape[0]
        if not (
            n >= 1
            and indptr.shape == (n + 1,)
            and sigma.shape == scaled.shape == seeds.shape == (n,)
            and lengths.shape == (nnz,)
            and indptr[0] == 0
            and indptr[n] == nnz
            and (np.diff(indptr) >= 0).all()
            and (nnz == 0 or (0 <= indices.min() and indices.max() < n))
            and (0 <= seeds.min() and seeds.max() < n)
        ):
            raise ValueError("the dense arrays do not form a CSR graph over the window")
        roots = np.empty(1 + top_k, dtype=np.int32)
        raised: List[BaseException] = []

        def expired() -> bool:
            # ctypes would print and drop an exception raised here, so it
            # stops the traversal and is raised once the call returns.
            try:
                return bool(budget.expired())
            except BaseException as exc:
                raised.append(exc)
                return True

        # The callback must outlive the call; it re-enters the interpreter.
        poll = _POLL(expired) if budget is not None else _POLL()
        arguments = _Input(
            n, indptr.ctypes.data_as(_I32), indices.ctypes.data_as(_I32),
            lengths.ctypes.data_as(_F64), sigma.ctypes.data_as(_F64),
            scaled.ctypes.data_as(_I64), seeds.ctypes.data_as(_I32),
            delta, delta + 1e-12, EPS, max_tuples or 0, by_length, prune, top_k,
            pool_size, poll,
        )
        out = _Output(roots=roots.ctypes.data_as(_I32))
        if self._solve(ctypes.byref(arguments), ctypes.byref(out)) != 0:
            raise MemoryError("the TGEN kernel ran out of memory")
        try:
            if raised:
                raise raised[0]
            rows = np.ctypeslib.as_array(out.forest, shape=(out.rows,)).tolist()
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
        return built[picked[0]], [built[row] for row in picked[1:]], stats


def load(
    cache_dir: Path = CACHE_DIR, compiler: str = COMPILER
) -> Tuple[Optional[Kernel], str]:
    """Load the kernel, compiling it into ``cache_dir`` first if no library
    of this source and these flags is cached there.

    Returns:
        The kernel and ``""``, or ``None`` and why the Python loop runs
        instead: ``no compiler``, ``compile error``, ``cache not writable``,
        ``load error`` or ``no kernel source``.
    """
    command = [compiler, *CFLAGS]
    try:
        digest = hashlib.sha256(SOURCE.read_bytes())
    except OSError:
        return None, f"no kernel source: {SOURCE}"
    digest.update("\0".join([sysconfig.get_platform(), *command]).encode("utf-8"))
    library = cache_dir / f"tgen_kernel-{digest.hexdigest()[:16]}.so"
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
