"""Property tests: the event loop matches a reference model of its queue.

Each test runs one program on two event queues — the heap inside
:class:`Simulator` and :class:`ReferenceQueue` — and requires identical
outcomes. The model is the plainest possible queue: a list of the live
``(time, seq, fn, args)`` entries kept sorted, where ``cancel`` removes
an entry and events scheduled by a firing callback (spawned children)
are inserted when their parent fires. :class:`Simulator` must produce
the same fire order, clocks and ``events_processed`` for any
schedule/schedule_at/batch/cancel/run program — hypothesis-generated op
lists and a seeded self-sustaining churn. The compaction thresholds are
lowered so that lazy-cancel compaction runs inside these programs.
"""

import bisect
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.engine as engine_module
from repro.sim.engine import Simulator

_DELAY = st.floats(min_value=0.0, max_value=2000.0, allow_nan=False)

_OP = st.one_of(
    # schedule keeps its handle for later cancels; forget drops it.
    st.tuples(st.just("schedule"), _DELAY),
    st.tuples(st.just("forget"), _DELAY),
    st.tuples(st.just("schedule_at"), _DELAY),
    # spawn: an event that, when fired, schedules a child — exercises
    # pushes after the clock has advanced.
    st.tuples(st.just("spawn"), _DELAY, st.floats(0.0, 50.0, allow_nan=False)),
    st.tuples(st.just("batch"), _DELAY, st.integers(1, 8)),
    st.tuples(st.just("cancel"), st.integers(0, 10_000)),
)


class ReferenceQueue:
    """The subset of the Simulator API the programs use, on a sorted list."""

    def __init__(self):
        self.now = 0.0
        self.events_processed = 0
        self._entries = []
        self._seq = 0

    def _add(self, time, fn, args):
        key = (time, self._seq)
        self._seq += 1
        bisect.insort(self._entries, (time, key[1], fn, args))
        return key

    def schedule(self, delay, fn, *args):
        return self._add(self.now + delay, fn, args)

    def schedule_at(self, time, fn, *args):
        return self._add(time, fn, args)

    def cancel(self, key):
        index = bisect.bisect_left(self._entries, key)
        if index < len(self._entries) and self._entries[index][:2] == key:
            del self._entries[index]

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


def _small_compaction():
    return mock.patch.object(engine_module, "COMPACT_MIN_EVENTS", 8)


def _eager_compaction():
    """Compact on every cancel once two entries are queued.

    The op mix cancels too few of its events to cross the real live
    fraction, so without this hypothesis would almost never compact.
    """
    return mock.patch.multiple(
        engine_module, COMPACT_MIN_EVENTS=2, COMPACT_LIVE_FRACTION=1.0
    )


def _run_program(sim, ops):
    """Apply one op sequence to ``sim``; return its full trace."""
    trace = []
    handles = []

    def fire(tag):
        trace.append((sim.now, tag))

    def spawn(tag, child_delay):
        trace.append((sim.now, tag))
        sim.schedule(child_delay, fire, ("child", tag))

    for tag, op in enumerate(ops):
        kind = op[0]
        if kind == "schedule":
            handles.append(sim.schedule(op[1], fire, tag))
        elif kind == "forget":
            sim.schedule(op[1], fire, tag)
        elif kind == "schedule_at":
            sim.schedule_at(op[1], fire, tag)
        elif kind == "spawn":
            sim.schedule(op[1], spawn, tag, op[2])
        elif kind == "batch":
            for i in range(op[2]):
                sim.schedule(op[1], fire, (tag, i))
        elif kind == "cancel" and handles:
            sim.cancel(handles[op[1] % len(handles)])
    sim.run()
    return trace, sim.now, sim.events_processed


@given(st.lists(_OP, max_size=120))
@settings(max_examples=60, deadline=None)
def test_simulator_matches_reference_model(ops):
    with _eager_compaction():
        actual = _run_program(Simulator(), ops)
    assert actual == _run_program(ReferenceQueue(), ops)


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
    """Self-sustaining ticks plus cancellable timers, seeded."""
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
            handle = sim.schedule(rng.random() * 50.0, fire, remaining)
            if rng.random() < 0.8:
                sim.cancel(handle)

    for _ in range(16):
        sim.schedule(rng.random(), tick)
    sim.run()
    return trace, sim.now, sim.events_processed


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 1337])
def test_seeded_churn_identical_across_schedulers(seed):
    """Heavy lazy cancellation drives the heap through compaction."""
    compact = engine_module.Simulator._compact
    with _small_compaction(), mock.patch.object(
        engine_module.Simulator, "_compact", autospec=True, side_effect=compact
    ) as spy:
        actual = _churn(Simulator(), seed)
    assert spy.call_count > 0
    assert actual == _churn(ReferenceQueue(), seed)
