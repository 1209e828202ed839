"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.errors import SimulationError


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(5.0, order.append, "c")
    sim.schedule(1.0, order.append, "a")
    sim.schedule(3.0, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 5.0


def test_ties_break_by_insertion_order():
    sim = Simulator()
    order = []
    for name in "abcde":
        sim.schedule(1.0, order.append, name)
    sim.run()
    assert order == list("abcde")


def test_schedule_from_callback():
    sim = Simulator()
    seen = []

    def chain(depth):
        seen.append(sim.now)
        if depth:
            sim.schedule(2.0, chain, depth - 1)

    sim.schedule(1.0, chain, 3)
    sim.run()
    assert seen == [1.0, 3.0, 5.0, 7.0]


def test_run_until_stops_clock_at_bound():
    sim = Simulator()
    hits = []
    sim.schedule(10.0, hits.append, "late")
    sim.run(until=4.0)
    assert hits == []
    assert sim.now == 4.0
    sim.run()
    assert hits == ["late"]


def test_event_exactly_at_until_is_processed():
    sim = Simulator()
    hits = []
    sim.schedule(4.0, hits.append, "edge")
    sim.run(until=4.0)
    assert hits == ["edge"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_at_in_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None)


def test_events_processed_counter():
    sim = Simulator()
    for i in range(5):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.events_processed == 5


def test_pending_counts_queued_events():
    sim = Simulator()
    assert sim.pending() == 0
    sim.schedule(7.0, lambda: None)
    sim.schedule(9.0, lambda: None)
    assert sim.pending() == 2
    sim.run(until=8.0)
    assert sim.pending() == 1
    sim.run()
    assert sim.pending() == 0
    assert sim.events_processed == 2
