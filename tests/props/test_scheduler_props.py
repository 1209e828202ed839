"""Property tests: the event loop matches a reference model of its queue.

Each test runs one program on two event queues — the heap inside
:class:`Simulator` and :class:`ReferenceQueue` — and requires identical
outcomes. The model is the plainest possible queue: a list of the
``(time, seq, fn, args)`` entries kept sorted, where events scheduled by
a firing callback (spawned children) are inserted when their parent
fires. :class:`Simulator` must produce the same fire order, clocks and
``events_processed`` for any schedule/schedule_at/batch/run program —
hypothesis-generated op lists and a seeded self-sustaining churn.
"""

import bisect
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator

_DELAY = st.floats(min_value=0.0, max_value=2000.0, allow_nan=False)

_OP = st.one_of(
    st.tuples(st.just("schedule"), _DELAY),
    st.tuples(st.just("schedule_at"), _DELAY),
    # spawn: an event that, when fired, schedules a child — exercises
    # pushes after the clock has advanced.
    st.tuples(st.just("spawn"), _DELAY, st.floats(0.0, 50.0, allow_nan=False)),
    st.tuples(st.just("batch"), _DELAY, st.integers(1, 8)),
)


class ReferenceQueue:
    """The subset of the Simulator API the programs use, on a sorted list."""

    def __init__(self):
        self.now = 0.0
        self.events_processed = 0
        self._entries = []
        self._seq = 0

    def _add(self, time, fn, args):
        bisect.insort(self._entries, (time, self._seq, fn, args))
        self._seq += 1

    def schedule(self, delay, fn, *args):
        self._add(self.now + delay, fn, args)

    def schedule_at(self, time, fn, *args):
        self._add(time, fn, args)

    def pending(self):
        return len(self._entries)

    def run(self, until=None):
        while self._entries:
            if until is not None and self._entries[0][0] > until:
                break
            time, _, fn, args = self._entries.pop(0)
            self.now = time
            fn(*args)
            self.events_processed += 1
        if until is not None and self.now < until:
            self.now = until


def _run_program(sim, ops):
    """Apply one op sequence to ``sim``; return its full trace."""
    trace = []

    def fire(tag):
        trace.append((sim.now, tag))

    def spawn(tag, child_delay):
        trace.append((sim.now, tag))
        sim.schedule(child_delay, fire, ("child", tag))

    for tag, op in enumerate(ops):
        kind = op[0]
        if kind == "schedule":
            sim.schedule(op[1], fire, tag)
        elif kind == "schedule_at":
            sim.schedule_at(op[1], fire, tag)
        elif kind == "spawn":
            sim.schedule(op[1], spawn, tag, op[2])
        elif kind == "batch":
            for i in range(op[2]):
                sim.schedule(op[1], fire, (tag, i))
    sim.run()
    return trace, sim.now, sim.events_processed


@given(st.lists(_OP, max_size=120))
@settings(max_examples=60, deadline=None)
def test_simulator_matches_reference_model(ops):
    assert _run_program(Simulator(), ops) == _run_program(ReferenceQueue(), ops)


@given(st.lists(_DELAY, max_size=80), st.floats(0.0, 2000.0, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_run_until_agrees_across_schedulers(delays, bound):
    outcomes = []
    for sim in (Simulator(), ReferenceQueue()):
        fired = []
        for tag, delay in enumerate(delays):
            sim.schedule(delay, lambda s=sim, t=tag: fired.append((s.now, t)))
        sim.run(until=bound)
        mid = (list(fired), sim.now, sim.pending())
        sim.run()
        outcomes.append((mid, list(fired), sim.now, sim.events_processed))
    assert outcomes[0] == outcomes[1]


def _churn(sim, seed):
    """Self-sustaining ticks plus one-shot timers, seeded."""
    rng = random.Random(seed)
    trace = []
    remaining = 2_000

    def fire(tag):
        trace.append((sim.now, tag))

    def tick():
        nonlocal remaining
        trace.append((sim.now, "tick"))
        if remaining <= 0:
            return
        remaining -= 1
        delay = rng.random() * 4.0 if rng.random() < 0.9 else 400.0 + rng.random() * 600.0
        sim.schedule(delay, tick)
        if rng.random() < 0.5:
            sim.schedule(rng.random() * 50.0, fire, remaining)

    for _ in range(16):
        sim.schedule(rng.random(), tick)
    sim.run()
    return trace, sim.now, sim.events_processed


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 1337])
def test_seeded_churn_identical_across_schedulers(seed):
    """Thousands of pushes from firing callbacks, at ties and far-future
    times, keep the heap's order equal to the sorted reference."""
    assert _churn(Simulator(), seed) == _churn(ReferenceQueue(), seed)
