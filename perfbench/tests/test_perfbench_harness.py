"""Tests for the benchmark's own arithmetic (``perfbench/harness.py``) and for
the agreement between ``BENCHMARK.json`` and the fixture recipes.

Run with ``python -m pytest perfbench/tests -q``.
"""

import json
import math
import random
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import fixtures  # noqa: E402
import harness  # noqa: E402
from harness import Outcomes, Span  # noqa: E402


# ---------------------------------------------------------------- percentiles
def test_percentile_reports_its_sample_count():
    values = [float(v) for v in range(1, 101)]
    random.Random(3).shuffle(values)
    p50, n = harness.percentile(values, 50)
    assert n == 100
    assert p50 == pytest.approx(50.5)
    assert harness.percentile(values, 0) == (1.0, 100)
    assert harness.percentile(values, 100) == (100.0, 100)
    assert harness.percentile(values, 90)[0] == pytest.approx(90.1)


def test_percentile_of_nothing_is_unmeasured():
    value, n = harness.percentile([], 99)
    assert n == 0 and math.isnan(value)
    with pytest.raises(ValueError):
        harness.percentile([1.0], 101)


def test_samples_beyond_gates_the_tail():
    # p99 rests on ten samples beyond it from 1,000 samples on.
    assert harness.samples_beyond(1000, 99) == 10
    assert harness.samples_beyond(900, 99) == 9
    assert harness.samples_beyond(36, 90) == 4


# ---------------------------------------------------------------- host speed
def test_speed_factor_scales_to_the_reference_kernel_time():
    ref = harness.REFERENCE_KERNEL_MS
    assert harness.speed_factor(ref, ref) == pytest.approx(1.0)
    # On a host at half speed everything, the kernel included, takes twice as long.
    assert harness.speed_factor(2 * ref, 2 * ref) == pytest.approx(0.5)
    assert harness.speed_factor(ref, 3 * ref) == pytest.approx(0.5)


def test_host_clock_scales_each_segment_by_the_probes_around_it():
    clock = harness.HostClock()
    clock.probes_ms = [1.3, 2.6, 2.6]
    clock.walls = [1.0, 2.0]
    assert clock.factor(0) == pytest.approx(1.3 / 1.95)
    assert clock.factor(1) == pytest.approx(0.5)
    assert clock.scaled_wall() == pytest.approx(1.3 / 1.95 + 1.0)


def test_host_clock_probes_per_interval_and_leaves_untimed_work_out():
    calls = []
    every_op = harness.HostClock(interval=0.0, kernel=lambda: calls.append(1))
    every_op.start()
    for _ in range(3):
        every_op.tick()
    every_op.stop()
    assert len(calls) == len(every_op.probes_ms) == 5
    assert len(every_op.walls) == 4

    seldom = harness.HostClock(interval=3600.0, kernel=lambda: None)
    seldom.start()
    seldom.tick()
    assert seldom.segment == 0
    seldom.untimed(time.sleep, 0.05)
    seldom.stop()
    # The sleep falls between segments 0 and 1, so no wall time holds it.
    assert seldom.segment == 2 and len(seldom.walls) == 2
    assert sum(seldom.walls) < 0.05


# ---------------------------------------------------------------- self time
def _span(i, name, start, end, parent=None):
    return Span(span_id=i, name=name, start=start, end=end, parent=parent, request=0)


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        _span(0, "op", 0.0, 10.0),
        _span(1, "a", 1.0, 5.0, parent=0),
        _span(2, "b", 3.0, 7.0, parent=0),   # overlaps a on [3, 5]
        _span(3, "c", 9.0, 12.0, parent=0),  # runs past its parent: clipped
        _span(4, "d", 2.0, 3.0, parent=1),
    ]
    selfs = harness.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 6.0 - 1.0)  # [1, 7] and [9, 10]
    assert selfs[1] == pytest.approx(3.0)
    assert selfs[2] == pytest.approx(4.0)
    assert selfs[4] == pytest.approx(1.0)


def test_coverage_is_layer_self_time_over_root_wall_time():
    spans = [
        _span(0, "op", 0.0, 4.0),
        _span(1, "solve", 0.0, 3.0, parent=0),
        _span(2, "op", 4.0, 8.0),
        _span(3, "solve", 4.0, 8.0, parent=2),
    ]
    per_layer, root_total = harness.layer_totals(spans, "op")
    assert root_total == pytest.approx(8.0)
    assert per_layer == {"solve": pytest.approx(7.0)}
    assert harness.coverage(spans, "op") == pytest.approx(7.0 / 8.0)


def test_coverage_can_leave_out_a_layer_that_wraps_the_whole_op():
    spans = [
        _span(0, "op", 0.0, 10.0),
        _span(1, "service", 0.0, 10.0, parent=0),
        _span(2, "solve", 2.0, 8.0, parent=1),
    ]
    assert harness.coverage(spans, "op") == pytest.approx(1.0)
    assert harness.coverage(spans, "op", leave_out=("service",)) == pytest.approx(0.6)


def test_covered_length_merges_touching_and_nested_intervals():
    assert harness.covered_length([(0, 1), (1, 2), (0.5, 0.7)], 0, 10) == pytest.approx(2.0)
    assert harness.covered_length([], 0, 10) == 0.0


# ---------------------------------------------------------------- failures
def test_failures_count_errors_and_wrong_answers_against_attempts():
    outcomes = Outcomes()
    for _ in range(8):
        outcomes.record_ok()
    outcomes.record_error()
    outcomes.record_error()
    outcomes.record_check(True)
    outcomes.record_check(False)
    assert (outcomes.attempted, outcomes.failed) == (10, 3)


# ---------------------------------------------------------------- op streams
def _stream(seed):
    rng = random.Random(seed)
    cum = harness.zipf_cum_weights(300, 1.1)
    return [harness.rw_cycle(rng, cum, 19, 50) for _ in range(3)]


def test_op_stream_is_identical_for_a_seed():
    assert _stream(5) == _stream(5)
    assert _stream(5) != _stream(6)


def test_rw_cycle_mix():
    for cycle in _stream(9):
        kinds = [kind for kind, _ in cycle]
        assert len(kinds) == 1001
        assert kinds.count("read") == 950
        assert [i for i, kind in enumerate(kinds) if kind == "write"] == list(range(19, 1000, 20))
        assert kinds[-1] == "compact"
        assert all(0 <= arg < 300 for kind, arg in cycle if kind == "read")


def test_zipf_weights_favour_low_ranks():
    cum = harness.zipf_cum_weights(300, 1.1)
    assert len(cum) == 300
    assert cum[0] == pytest.approx(1.0)
    assert 0.15 < cum[0] / cum[-1] < 0.25


def test_digest_is_order_sensitive_and_stable():
    items = [[1, [[1, 2], [[1, 2]], 0.5, 10.0]], [2, [[], [], 0.0, 0.0]]]
    assert harness.digest(items) == harness.digest(json.loads(json.dumps(items)))
    assert harness.digest(items) != harness.digest(items[::-1])


# ---------------------------------------------------------------- contract
def test_every_benchmark_workload_has_a_fixture():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(fixtures.FIXTURES)
