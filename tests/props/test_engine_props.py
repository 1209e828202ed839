"""Property-based tests for the simulation engine."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), max_size=200))
def test_events_fire_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda d=delay: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(st.lists(st.tuples(st.floats(0.0, 100.0), st.integers(0, 99)), max_size=100))
def test_equal_times_preserve_insertion_order(items):
    sim = Simulator()
    fired = []
    for delay, tag in items:
        rounded = round(delay, 1)
        sim.schedule(rounded, lambda r=rounded, t=tag: fired.append((r, t)))
    sim.run()
    # Per distinct timestamp, tags must appear in insertion order.
    by_time = {}
    for rounded, tag in fired:
        by_time.setdefault(rounded, []).append(tag)
    expected = {}
    for delay, tag in items:
        expected.setdefault(round(delay, 1), []).append(tag)
    assert by_time == expected


@given(
    st.lists(st.floats(min_value=0.01, max_value=50.0), min_size=1, max_size=30),
    st.integers(min_value=1, max_value=5),
)
def test_chained_scheduling_advances_clock_monotonically(gaps, depth):
    sim = Simulator()
    times = []

    def chain(remaining):
        times.append(sim.now)
        if remaining:
            sim.schedule(gaps[remaining % len(gaps)], chain, remaining - 1)

    sim.schedule(gaps[0], chain, depth)
    sim.run()
    assert times == sorted(times)
    assert len(times) == depth + 1


@given(st.lists(st.floats(0.0, 1000.0), max_size=60), st.floats(0.0, 1000.0))
def test_run_until_never_processes_later_events(delays, bound):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda d=delay: fired.append(d))
    sim.run(until=bound)
    assert all(d <= bound for d in fired)
    sim.run()
    assert len(fired) == len(delays)
