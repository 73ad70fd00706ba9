"""The benchmark's own arithmetic: percentiles, host-speed scaling, span self
times, failure counts and the read/write op stream.

Everything here except the kernel timing in :meth:`HostClock.probe` is pure and
deterministic, so ``tests/test_perfbench_harness.py`` pins it down without
running a workload.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


# ---------------------------------------------------------------- percentiles
def percentile(values: Sequence[float], q: float) -> Tuple[float, int]:
    """Linear-interpolated ``q``-th percentile and the sample count it rests on.

    Returns ``(nan, 0)`` for an empty sample so a caller can tell "not measured"
    apart from a measured zero.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must lie in [0, 100], got {q}")
    n = len(values)
    if n == 0:
        return math.nan, 0
    ordered = sorted(values)
    pos = (n - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    frac = pos - lo
    return ordered[lo] + (ordered[hi] - ordered[lo]) * frac, n


def median(values: Sequence[float]) -> float:
    """The 50th percentile (``nan`` when empty)."""
    return percentile(values, 50.0)[0]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly beyond the ``q``-th percentile."""
    return n - 1 - math.floor((n - 1) * q / 100.0)


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean (``nan`` when empty)."""
    return sum(values) / len(values) if values else math.nan


# ---------------------------------------------------------------- host speed
REFERENCE_KERNEL_MS = 1.3
"""What :func:`reference_kernel` takes on a quiet 2-vCPU x86-64 cloud host
under CPython 3.11; every reported time is scaled to a host that fast."""


def reference_kernel() -> int:
    """A fixed pure-Python loop of about a millisecond, independent of ``repro``."""
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    return acc


def speed_factor(before_ms: float, after_ms: float) -> float:
    """Scale for a time taken between two kernel probes of the given lengths."""
    return REFERENCE_KERNEL_MS / ((before_ms + after_ms) / 2.0)


class HostClock:
    """Wall time scaled to a fixed host speed.

    A shared cloud host changes speed by up to 1.5x from one second to the
    next, and process CPU time moves with wall time (the vCPU itself runs
    slower; little of the time is stolen), so raw times from two runs compare
    the host as much as the program. The clock therefore runs
    :func:`reference_kernel` between operations, at least every ``interval``
    seconds of work, and cuts the timeline into segments at those probes.
    Time spent in segment ``i`` is scaled by :func:`speed_factor` of the two
    probes around it: it becomes the time the work would have taken on a host
    where the kernel takes ``REFERENCE_KERNEL_MS``.

    Call :meth:`start`, then :meth:`tick` before every operation (only where
    no operation is in flight), then :meth:`stop`.
    """

    def __init__(self, interval: float = 0.025,
                 kernel: Callable[[], object] = reference_kernel) -> None:
        self.interval = interval
        self.kernel = kernel
        self.probes_ms: List[float] = []
        self.walls: List[float] = []
        self._opened = 0.0

    @property
    def segment(self) -> int:
        """Index of the segment now open."""
        return len(self.probes_ms) - 1

    def probe(self) -> None:
        """Run the kernel once and open a new segment after it."""
        start = time.perf_counter()
        self.kernel()
        self._opened = time.perf_counter()
        self.probes_ms.append((self._opened - start) * 1000.0)

    def _close(self) -> None:
        self.walls.append(time.perf_counter() - self._opened)

    def start(self) -> None:
        self.probe()

    def tick(self) -> None:
        """Probe when the open segment has run for ``interval`` seconds."""
        if time.perf_counter() - self._opened >= self.interval:
            self._close()
            self.probe()

    def untimed(self, fn: Callable, *args):
        """Run ``fn`` between two segments, so its time counts in none."""
        self._close()
        try:
            return fn(*args)
        finally:
            self.probe()

    def stop(self) -> None:
        self._close()
        self.probe()

    def factor(self, segment: int) -> float:
        return speed_factor(self.probes_ms[segment], self.probes_ms[segment + 1])

    def scaled_wall(self) -> float:
        """Seconds of all closed segments, each scaled to the reference speed."""
        return sum(wall * self.factor(i) for i, wall in enumerate(self.walls))


@dataclass
class Sample:
    """One timed operation: its type, raw duration, clock segment and query."""

    kind: str
    ms: float
    segment: int
    traced: bool = False
    key: int = -1


# ---------------------------------------------------------------- failures
@dataclass
class Outcomes:
    """Counts of operations attempted and failed (errors plus wrong answers)."""

    attempted: int = 0
    errors: int = 0
    wrong: int = 0

    @property
    def failed(self) -> int:
        return self.errors + self.wrong

    def record_error(self) -> None:
        self.attempted += 1
        self.errors += 1

    def record_ok(self) -> None:
        self.attempted += 1

    def record_check(self, matched: bool) -> None:
        """A checked answer; the op itself was already counted as attempted."""
        if not matched:
            self.wrong += 1


# ---------------------------------------------------------------- spans
@dataclass
class Span:
    """One timed call at a layer boundary."""

    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[int]
    counts: Optional[Dict[str, float]] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {
            "id": self.span_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "request": self.request,
            "counts": self.counts or {},
        }


def covered_length(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals`` (clipped)."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a: Optional[float] = None
    cur_b = 0.0
    for a, b in clipped:
        if cur_a is None:
            cur_a, cur_b = a, b
        elif a <= cur_b:
            cur_b = max(cur_b, b)
        else:
            total += cur_b - cur_a
            cur_a, cur_b = a, b
    if cur_a is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Children that overlap one another (concurrent work under one parent) are
    counted once: the union of their intervals is subtracted, not the sum.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.span_id: span.duration
        - covered_length(children.get(span.span_id, ()), span.start, span.end)
        for span in spans
    }


def layer_totals(spans: Sequence[Span], root: str) -> Tuple[Dict[str, float], float]:
    """Summed self time per layer name and the summed duration of ``root`` spans."""
    selfs = self_times(spans)
    per_layer: Dict[str, float] = {}
    root_total = 0.0
    for span in spans:
        if span.name == root:
            root_total += span.duration
            continue
        per_layer[span.name] = per_layer.get(span.name, 0.0) + selfs[span.span_id]
    return per_layer, root_total


def coverage(spans: Sequence[Span], root: str, leave_out: Sequence[str] = ()) -> float:
    """Summed layer self time under ``root`` spans divided by their wall time.

    A layer span that wraps a whole operation takes, as its self time, every
    cost no narrower span claims, so with it coverage is near 1 by
    construction. Naming such layers in ``leave_out`` gives the share of time
    that the narrower layers account for.
    """
    per_layer, root_total = layer_totals(spans, root)
    claimed = sum(t for name, t in per_layer.items() if name not in leave_out)
    return claimed / root_total if root_total > 0 else math.nan


# ---------------------------------------------------------------- op streams
def zipf_cum_weights(n: int, exponent: float) -> List[float]:
    """Cumulative Zipf weights over ranks ``1..n`` for ``random.choices``."""
    total = 0.0
    cum: List[float] = []
    for rank in range(1, n + 1):
        total += 1.0 / rank**exponent
        cum.append(total)
    return cum


def rw_cycle(
    rng: random.Random,
    cum_weights: Sequence[float],
    reads_per_write: int,
    writes: int,
) -> List[Tuple[str, int]]:
    """One compaction cycle of the read/write stream.

    ``writes`` times: ``reads_per_write`` reads of pool indices drawn by Zipf
    rank, then one write of a seeded kind (0 = rate, 1 = add). A compaction
    closes the cycle. Writes sit at fixed positions, so every cycle has the
    same number of reads between two cache invalidations.
    """
    ranks = range(len(cum_weights))
    ops: List[Tuple[str, int]] = []
    for _ in range(writes):
        draws = rng.choices(ranks, cum_weights=cum_weights, k=reads_per_write)
        ops.extend(("read", index) for index in draws)
        ops.append(("write", rng.randrange(2)))
    ops.append(("compact", 0))
    return ops


def digest(items: Iterable) -> str:
    """Short stable hash of JSON-serialisable answer signatures."""
    sha = hashlib.sha256()
    for item in items:
        sha.update(json.dumps(item, sort_keys=True).encode("utf-8"))
        sha.update(b"\n")
    return sha.hexdigest()[:16]
