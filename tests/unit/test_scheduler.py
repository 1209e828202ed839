"""Unit tests for the event queue and its mechanics.

Covers :class:`HeapScheduler` directly (ordering, lazy-cancellation
discard, compaction) and the engine-level behaviours that ride on it:
lazy-pop ``peek_time`` and the cancellation-leak fix.
"""

from repro.sim.engine import Simulator
from repro.sim.events import Event
from repro.sim.scheduler import COMPACT_MIN_EVENTS, HeapScheduler


# ----------------------------------------------------------------------
# Queue-level ordering
# ----------------------------------------------------------------------
def _event(time, seq):
    return Event(time, seq, lambda: None, ())


def test_pop_orders_by_time_then_seq():
    sched = HeapScheduler()
    sched.push(_event(5.0, 3))
    sched.push(_event(1.0, 1))
    sched.push(_event(5.0, 2))
    sched.push(_event(0.5, 0))
    order = []
    while True:
        event = sched.pop()
        if event is None:
            break
        order.append((event.time, event.seq))
    assert order == [(0.5, 0), (1.0, 1), (5.0, 2), (5.0, 3)]
    assert len(sched) == 0


def test_peek_returns_next_live_without_removing():
    sched = HeapScheduler()
    first = _event(1.0, 0)
    second = _event(2.0, 1)
    sched.push(first)
    sched.push(second)
    assert sched.peek() is first
    assert len(sched) == 2
    first.cancelled = True
    sched.note_cancel(first)
    # Lazy-pop: the cancelled head is discarded as a side effect.
    assert sched.peek() is second
    assert sched.pop() is second
    assert sched.peek() is None


def test_pop_until_pops_only_due_events():
    sched = HeapScheduler()
    dead = _event(1.0, 0)
    due = _event(2.0, 1)
    later = _event(3.0, 2)
    for event in (dead, due, later):
        sched.push(event)
    dead.cancelled = True
    sched.note_cancel(dead)
    assert sched.pop_until(2.0) is due
    assert not dead.queued and len(sched) == 1
    # A live head past the horizon stays queued.
    assert sched.pop_until(2.5) is None
    assert later.queued and sched.peek() is later
    assert sched.pop_until(3.0) is later
    assert sched.pop_until(10.0) is None


# ----------------------------------------------------------------------
# Cancellation leak + compaction (the regression this PR fixes)
# ----------------------------------------------------------------------
def test_cancel_heavy_workload_compacts_queue():
    """Schedule-and-cancel no longer grows the queue without bound."""
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


# ----------------------------------------------------------------------
# peek_time (lazy-pop fix)
# ----------------------------------------------------------------------
def test_peek_time_skips_cancelled_head():
    sim = Simulator()
    first = sim.schedule(1.0, lambda: None)
    sim.schedule(5.0, lambda: None)
    assert sim.peek_time() == 1.0
    sim.cancel(first)
    assert sim.peek_time() == 5.0
    assert sim.events_processed == 0  # peek never executes anything
    sim.run()
    assert sim.peek_time() is None


def test_peek_time_many_cancelled():
    sim = Simulator()
    handles = [sim.schedule(float(i), lambda: None) for i in range(100)]
    for handle in handles[:99]:
        sim.cancel(handle)
    assert sim.peek_time() == 99.0
