"""Unit tests for the simulator's event queue and its mechanics.

Covers the heap inside :class:`Simulator` (ordering, lazy-cancellation
discard, compaction) and the cancellation-leak fix. The heap entry
``[time, seq, fn, args]`` is the event handle.
"""

from unittest import mock

import repro.sim.engine as engine_module
from repro.sim.engine import COMPACT_MIN_EVENTS, Simulator


# ----------------------------------------------------------------------
# Queue-level ordering
# ----------------------------------------------------------------------
def test_pop_orders_by_time_then_seq():
    sim = Simulator()
    fired = []
    sim.schedule_at(5.0, fired.append, "c")
    sim.schedule_at(1.0, fired.append, "a")
    sim.schedule_at(5.0, fired.append, "d")
    sim.schedule_at(0.5, fired.append, "start")
    sim.run()
    assert fired == ["start", "a", "c", "d"]
    assert sim.pending() == 0
    assert sim.events_processed == 4


def test_cancelled_head_is_discarded_when_reached():
    sim = Simulator()
    fired = []
    first = sim.schedule(1.0, fired.append, "first")
    sim.schedule(2.0, fired.append, "second")
    sim.cancel(first)
    assert sim.pending() == 2  # lazy: the cancelled entry stays queued
    sim.run(until=1.5)
    assert fired == []
    assert sim.pending() == 1  # reaching the head discarded it
    sim.run()
    assert fired == ["second"]
    assert sim.pending() == 0
    assert sim.events_processed == 1


def test_pop_until_pops_only_due_events():
    sim = Simulator()
    fired = []
    dead = sim.schedule(1.0, fired.append, "dead")
    sim.schedule(2.0, fired.append, "due")
    sim.schedule(3.0, fired.append, "later")
    sim.cancel(dead)
    sim.run(until=2.0)
    assert fired == ["due"]
    assert sim.pending() == 1
    # A live head past the horizon stays queued.
    sim.run(until=2.5)
    assert fired == ["due"] and sim.pending() == 1
    sim.run(until=3.0)
    assert fired == ["due", "later"]
    sim.run(until=10.0)
    assert sim.events_processed == 2


# ----------------------------------------------------------------------
# Cancellation leak + compaction
# ----------------------------------------------------------------------
def test_cancel_heavy_workload_compacts_queue():
    """Schedule-and-cancel does not grow the queue without bound."""
    sim = Simulator()
    keep = []
    total = 4 * COMPACT_MIN_EVENTS
    for index in range(total):
        handle = sim.schedule(1000.0 + index, lambda: None)
        if index % 64 == 0:
            keep.append(handle)
        else:
            sim.cancel(handle)
    live = len(keep)
    # Without compaction, pending() would still be `total`.
    assert sim.pending() < 2 * max(live, COMPACT_MIN_EVENTS)
    sim.run()
    assert sim.events_processed == live


def test_compaction_preserves_order_and_future_cancels():
    sim = Simulator()
    fired = []
    handles = [
        sim.schedule(float(index % 50), fired.append, index)
        for index in range(2 * COMPACT_MIN_EVENTS)
    ]
    # Cancel enough to force at least one compaction...
    for handle in handles[: COMPACT_MIN_EVENTS + COMPACT_MIN_EVENTS // 2]:
        sim.cancel(handle)
    # ...then cancel survivors afterwards: their handles must still be
    # honoured even though compaction rebuilt the queue around them.
    for handle in handles[-8:]:
        sim.cancel(handle)
    sim.run()
    expected = [
        index
        for index in range(
            COMPACT_MIN_EVENTS + COMPACT_MIN_EVENTS // 2,
            2 * COMPACT_MIN_EVENTS - 8,
        )
    ]
    assert sorted(fired) == expected
    times = [index % 50 for index in fired]
    assert times == sorted(times)


def test_cancel_after_fire_is_noop():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    sim.schedule(2.0, fired.append, "y")
    sim.run()
    sim.cancel(handle)  # already ran; must not corrupt queue counters
    sim.cancel(handle)
    sim.schedule(1.0, fired.append, "z")
    sim.run()
    assert fired == ["x", "y", "z"]


def test_cancel_after_fire_does_not_skew_compaction(monkeypatch):
    """Cancelling fired events must not count them as dead entries.

    If it did, the dead count would exceed the queue's real dead
    entries: a compaction would run with every queued entry live, and
    the later discard of a really cancelled head would leave the count
    negative.
    """
    monkeypatch.setattr(engine_module, "COMPACT_MIN_EVENTS", 4)
    sim = Simulator()
    fired_handles = [sim.schedule(1.0, lambda: None) for _ in range(8)]
    sim.run()
    later = [sim.schedule(10.0 + index, lambda: None) for index in range(4)]
    compact = Simulator._compact
    with mock.patch.object(
        Simulator, "_compact", autospec=True, side_effect=compact
    ) as spy:
        for handle in fired_handles:
            sim.cancel(handle)
        assert spy.call_count == 0
        assert sim._cancelled == 0
        sim.cancel(later[0])
        assert sim._cancelled == 1
        assert spy.call_count == 0  # 3 of 4 entries still live
    assert sim.pending() == 4
    sim.run()
    assert sim._cancelled == 0
    assert sim.events_processed == 8 + 3
