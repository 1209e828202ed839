"""Unit tests for measurement primitives."""

import pytest

from repro.sim.stats import Counter, LatencyRecorder, RateMeter


class TestCounter:
    def test_add_and_get(self):
        counter = Counter()
        counter.add("x")
        counter.add("x", 4)
        assert counter.get("x") == 5
        assert counter.get("missing") == 0

    def test_diff_reports_only_changes(self):
        counter = Counter()
        counter.add("a", 2)
        snap = counter.snapshot()
        counter.add("a", 3)
        counter.add("b", 1)
        assert counter.diff(snap) == {"a": 3, "b": 1}

    def test_snapshot_is_isolated(self):
        counter = Counter()
        counter.add("a")
        snap = counter.snapshot()
        counter.add("a")
        assert snap["a"] == 1


class TestWelford:
    """LatencyRecorder keeps a running mean and variance (Welford)."""

    def test_mean_and_variance(self):
        rec = LatencyRecorder()
        for value in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]:
            rec.record(value)
        assert rec.mean == pytest.approx(5.0)
        assert rec.stdev**2 == pytest.approx(32.0 / 7.0)

    def test_empty(self):
        rec = LatencyRecorder()
        assert rec.mean == 0.0
        assert rec.stdev == 0.0


class TestLatencyRecorder:
    def test_percentiles_exact(self):
        rec = LatencyRecorder()
        for value in range(1, 101):
            rec.record(float(value))
        assert rec.percentile(50) == 50.0
        assert rec.percentile(90) == 90.0
        assert rec.percentile(99) == 99.0
        assert rec.percentile(100) == 100.0
        assert rec.percentile(0) == 1.0

    def test_mean(self):
        rec = LatencyRecorder()
        rec.record(10.0)
        rec.record(20.0)
        assert rec.mean == 15.0

    def test_empty_summary(self):
        rec = LatencyRecorder()
        assert rec.percentile(99) == 0.0
        assert rec.summary()["count"] == 0.0

    def test_out_of_range_percentile(self):
        rec = LatencyRecorder()
        rec.record(1.0)
        with pytest.raises(ValueError):
            rec.percentile(101)

    def test_summary_keys(self):
        rec = LatencyRecorder()
        rec.record(5.0)
        summary = rec.summary()
        for key in ("count", "avg", "p50", "p90", "p99", "p99.9", "max"):
            assert key in summary

    def test_record_after_percentile_query(self):
        rec = LatencyRecorder()
        rec.record(1.0)
        assert rec.percentile(50) == 1.0
        rec.record(100.0)
        assert rec.percentile(100) == 100.0


class TestRateMeter:
    def test_rate_over_window(self):
        meter = RateMeter()
        meter.open_window(1000.0)
        for _ in range(50):
            meter.record(100)
        meter.close_window(2000.0)  # 1000 us window
        assert meter.rate_per_sec() == pytest.approx(50 / 1e-3)
        assert meter.gbps() == pytest.approx(50 * 100 * 8 / 1e-3 / 1e9)

    def test_records_outside_window_ignored(self):
        meter = RateMeter()
        meter.record(1)  # before open
        meter.open_window(0.0)
        meter.record(1)
        meter.close_window(10.0)
        meter.record(1)  # after close
        assert meter.count == 1

    def test_zero_window(self):
        meter = RateMeter()
        assert meter.rate_per_sec() == 0.0
        assert meter.gbps() == 0.0

