"""Contract of the latency summaries and sketches (``repro.metrics.runtime``).

Fleet aggregation can scrape a worker before its first request completes, so
every summary/percentile helper must answer "no data yet" with ``None`` —
never ``NaN``, never an ``IndexError``, never a fake ``0.0`` latency.  The
mergeable sketches count every recorded value and merge conservatively.
"""

import math

import pytest

from repro.metrics.runtime import (
    SKETCH_BOUNDS,
    LatencyRecorder,
    merge_sketches,
    sketch_percentile,
    summarize_sketch,
)


def test_empty_recorder_summary_is_all_none_except_count():
    summary = LatencyRecorder().summary()
    assert summary["count"] == 0.0
    for key in ("mean", "max", "p50", "p90", "p99"):
        assert summary[key] is None, key


def test_populated_recorder_summary_has_no_nones():
    recorder = LatencyRecorder()
    for value in (0.010, 0.020, 0.030):
        recorder.record(value)
    summary = recorder.summary()
    assert summary["count"] == 3.0
    assert summary["mean"] == pytest.approx(0.020)
    assert summary["max"] == pytest.approx(0.030)
    for key in ("p50", "p90", "p99"):
        assert summary[key] is not None
        assert not math.isnan(summary[key])


def test_sketch_percentile_empty_inputs_return_none():
    assert sketch_percentile(None, 50.0) is None
    assert sketch_percentile("not-a-sketch", 50.0) is None
    assert sketch_percentile({}, 99.0) is None
    assert sketch_percentile({"bounds": [], "counts": []}, 50.0) is None
    zero = {"bounds": list(SKETCH_BOUNDS), "counts": [0] * (len(SKETCH_BOUNDS) + 1)}
    assert sketch_percentile(zero, 99.0) is None


def test_sketch_percentile_validates_q_and_bounds_rank():
    recorder = LatencyRecorder()
    recorder.record(0.012)
    sketch = recorder.sketch()
    with pytest.raises(ValueError):
        sketch_percentile(sketch, 101.0)
    with pytest.raises(ValueError):
        sketch_percentile(sketch, -0.5)
    # Conservative: reports the upper bound of the bucket holding the rank.
    p50 = sketch_percentile(sketch, 50.0)
    assert p50 is not None and p50 >= 0.012


def test_summarize_empty_sketch_is_count_zero_stats_none():
    summary = summarize_sketch(merge_sketches([]))
    assert summary["count"] == 0.0
    for key in ("mean", "max", "p50", "p90", "p99"):
        assert summary[key] is None, key


def test_summarize_populated_sketch_round_trips():
    recorder = LatencyRecorder()
    for value in (0.004, 0.050, 0.900):
        recorder.record(value)
    summary = summarize_sketch(recorder.sketch())
    assert summary["count"] == 3.0
    assert summary["mean"] == pytest.approx((0.004 + 0.050 + 0.900) / 3)
    assert summary["max"] is not None and summary["max"] >= 0.900
    assert summary["p50"] is not None


def test_merge_sketches_rejects_mismatched_bounds():
    left = {"bounds": [0.1, 1.0], "counts": [1, 0, 0], "count": 1, "sum_seconds": 0.1}
    right = {"bounds": [0.2, 2.0], "counts": [1, 0, 0], "count": 1, "sum_seconds": 0.2}
    with pytest.raises(ValueError):
        merge_sketches([left, right])


def test_sketch_counts_every_recorded_value():
    recorder = LatencyRecorder(max_samples=4)
    for value in (0.001, 0.002, 0.004, 0.2, 1.5):
        recorder.record(value)
    sketch = recorder.sketch()
    assert sketch["count"] == 5
    assert sum(sketch["counts"]) == 5  # window is 4, the sketch is all-time
    assert sketch["sum_seconds"] == pytest.approx(1.707)


def test_merged_sketch_percentiles_are_conservative():
    fast, slow = LatencyRecorder(), LatencyRecorder()
    for _ in range(99):
        fast.record(0.001)
    slow.record(10.0)
    merged = merge_sketches([fast.sketch(), slow.sketch()])
    assert merged["count"] == 100
    # p50 stays in the fast bucket, p99+ must not understate the slow tail
    assert sketch_percentile(merged, 50.0) <= 0.0032
    assert sketch_percentile(merged, 99.5) >= 10.0
    summary = summarize_sketch(merged)
    assert summary["count"] == 100.0
    assert summary["mean"] == pytest.approx((99 * 0.001 + 10.0) / 100)
    assert summary["max"] >= 10.0


def test_merge_rejects_mismatched_bounds():
    sketch = LatencyRecorder().sketch()
    other = dict(sketch, bounds=list(sketch["bounds"][:-1]))
    with pytest.raises(ValueError):
        merge_sketches([sketch, other])


def test_merge_of_nothing_is_an_empty_sketch():
    merged = merge_sketches([])
    assert merged["count"] == 0
    # explicit empty contract: None, never a fake 0.0 latency
    assert sketch_percentile(merged, 99.0) is None
    summary = summarize_sketch(merged)
    assert summary["count"] == 0.0
    assert summary["mean"] is None
    assert summary["max"] is None
    assert summary["p99"] is None
