"""Property-based tests for the statistics primitives."""

import math

from hypothesis import given
from hypothesis import strategies as st

from repro.sim.stats import LatencyRecorder, RateMeter

finite_floats = st.floats(
    min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False
)


@given(st.lists(finite_floats, min_size=1, max_size=500))
def test_percentiles_match_nearest_rank_reference(samples):
    rec = LatencyRecorder()
    for value in samples:
        rec.record(value)
    ordered = sorted(samples)
    for pct in (1, 25, 50, 90, 99, 100):
        rank = max(math.ceil(pct / 100.0 * len(ordered)), 1)
        assert rec.percentile(pct) == ordered[rank - 1]


@given(st.lists(finite_floats, min_size=1, max_size=300))
def test_percentile_monotonic_in_p(samples):
    rec = LatencyRecorder()
    for value in samples:
        rec.record(value)
    values = [rec.percentile(p) for p in (0, 10, 50, 90, 99, 100)]
    assert values == sorted(values)


@given(st.lists(finite_floats, min_size=1, max_size=300))
def test_percentile_bounded_by_extremes(samples):
    rec = LatencyRecorder()
    for value in samples:
        rec.record(value)
    assert min(samples) <= rec.percentile(50) <= max(samples)
    assert rec.mean <= max(samples) + 1e-6
    assert rec.mean >= min(samples) - 1e-6


@given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=200))
def test_welford_matches_direct_computation(samples):
    rec = LatencyRecorder()
    for value in samples:
        rec.record(value)
    mean = sum(samples) / len(samples)
    var = sum((v - mean) ** 2 for v in samples) / (len(samples) - 1)
    assert rec.mean == pytest_approx(mean)
    assert rec.stdev**2 == pytest_approx(var, rel=1e-6, abs=1e-6)


def pytest_approx(value, rel=1e-9, abs=1e-9):
    import pytest

    return pytest.approx(value, rel=rel, abs=abs)


@given(
    st.lists(st.integers(min_value=0, max_value=10_000), max_size=200),
    st.floats(min_value=1.0, max_value=1e6),
)
def test_rate_meter_arithmetic(sizes, window_us):
    meter = RateMeter()
    meter.open_window(0.0)
    for size in sizes:
        meter.record(size)
    meter.close_window(window_us)
    assert meter.count == len(sizes)
    assert meter.rate_per_sec() == pytest_approx(len(sizes) / window_us * 1e6)
    assert meter.gbps() == pytest_approx(sum(sizes) * 8 / (window_us * 1e-6) / 1e9)
