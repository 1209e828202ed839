"""Unit tests for the simulator's event queue: the heap inside
:class:`Simulator` orders ``[time, seq, fn, args]`` entries by time, then
by insertion order, and ``run(until=)`` pops only what is due.
"""

from repro.sim.engine import Simulator


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


def test_pop_until_pops_only_due_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "first")
    sim.schedule(2.0, fired.append, "due")
    sim.schedule(3.0, fired.append, "later")
    sim.run(until=2.0)
    assert fired == ["first", "due"]
    assert sim.pending() == 1
    # A head past the horizon stays queued.
    sim.run(until=2.5)
    assert fired == ["first", "due"] and sim.pending() == 1
    sim.run(until=3.0)
    assert fired == ["first", "due", "later"]
    sim.run(until=10.0)
    assert sim.events_processed == 3
