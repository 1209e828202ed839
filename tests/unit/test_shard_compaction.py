"""Simulator compaction under cancel churn.

Callbacks that cancel most of the timers they schedule keep the lazy-
cancel compaction pass running while live events are still queued.
These tests pin down that compaction cannot reorder, drop or resurrect
events: the fired sequence must equal the live set in (time, seq) order.
"""

import random

import repro.sim.engine as engine_module
from repro.sim.engine import Simulator


def test_compaction_cannot_resurrect_or_drop(monkeypatch):
    """Randomized churn cross-checked against a straight reference list:
    cancellations and forced compactions must fire exactly the live set,
    in (time, seq) order. Catches both drops and zombie
    (cancelled-but-fired) events."""
    monkeypatch.setattr(engine_module, "COMPACT_MIN_EVENTS", 16)
    rng = random.Random(1)
    sim = Simulator()
    fired = []
    handles = {}
    for i in range(400):
        t = rng.random() * 1000.0
        handles[i] = (t, sim.schedule(t, fired.append, i))
    doomed = rng.sample(sorted(handles), 300)
    for i in doomed:
        sim.cancel(handles[i][1])
    cancelled = set(doomed)
    sim.run()
    assert fired == [i for _t, i in sorted(
        (handles[i][0], i) for i in handles if i not in cancelled
    )]


def test_rescheduled_waves_survive_cancel_churn(monkeypatch):
    """Callbacks that schedule the next wave while cancel churn keeps
    compacting the queue must fire every wave in order and keep
    cancelled timers dead."""
    monkeypatch.setattr(engine_module, "COMPACT_MIN_EVENTS", 8)
    sim = Simulator()
    fired = []

    def wave(round_index):
        if round_index >= 30:
            return
        # Each wave schedules deliveries plus cancellable timers, most
        # of which die -> compaction.
        for i in range(8):
            sim.schedule_at(sim.now + 1.0 + i * 0.1, fired.append,
                            (round_index, i))
        doomed = [sim.schedule(500.0 + i, fired.append, "never")
                  for i in range(12)]
        for handle in doomed[:11]:
            sim.cancel(handle)
        sim.schedule_at(sim.now + 2.0, wave, round_index + 1)

    sim.schedule_at(0.0, wave, 0)
    sim.run(until=100.0)
    by_round = [entry for entry in fired if isinstance(entry, tuple)]
    assert by_round == sorted(by_round)
    assert len(by_round) == 30 * 8
    assert "never" not in fired  # cancelled timers stayed dead
    sim.run()
    assert fired.count("never") == 30  # exactly the survivors
