"""Property tests for the CPU model: accounting and serialization."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.cpu import HARDIRQ, SOFTIRQ, USER, Cpu
from repro.metrics.cpuacct import CpuAccounting
from repro.sim.engine import Simulator

work_items = st.lists(
    st.tuples(
        st.sampled_from([HARDIRQ, SOFTIRQ, USER]),
        st.floats(min_value=0.0, max_value=50.0),
    ),
    min_size=1,
    max_size=50,
)


@given(work_items)
def test_busy_time_equals_sum_of_charges(items):
    sim = Simulator()
    acct = CpuAccounting()
    cpu = Cpu(sim, 0, acct)
    for context, duration in items:
        cpu.submit(context, f"fn{context}", duration)
    sim.run()
    total = sum(duration for _ctx, duration in items)
    assert abs(acct.busy_us(0) - total) < 1e-6


@given(work_items)
def test_serialized_execution_finishes_at_sum(items):
    """One core never overlaps work: completion time == total work when
    everything is submitted up front."""
    sim = Simulator()
    cpu = Cpu(sim, 0, CpuAccounting())
    done = []
    for context, duration in items:
        cpu.submit(context, "fn", duration, lambda: done.append(sim.now))
    sim.run()
    total = sum(duration for _ctx, duration in items)
    assert abs(sim.now - total) < 1e-6
    assert len(done) == len(items)
    assert done == sorted(done)


@given(work_items)
def test_context_accounting_partition(items):
    """Per-context busy time partitions the total exactly."""
    sim = Simulator()
    acct = CpuAccounting()
    cpu = Cpu(sim, 0, acct)
    for context, duration in items:
        cpu.submit(context, "fn", duration)
    sim.run()
    split = sum(
        acct.busy_us_context(0, context) for context in (HARDIRQ, SOFTIRQ, USER)
    )
    assert abs(split - acct.busy_us(0)) < 1e-6


@given(
    st.lists(
        st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0)), min_size=1, max_size=20
    )
)
def test_hardirq_always_preempts_queue_order(pairs):
    """Whenever hardirq and user work are queued together, all hardirq
    work starts before any queued user work."""
    sim = Simulator()
    cpu = Cpu(sim, 0, CpuAccounting())
    order = []
    cpu.submit(USER, "warm", 1.0, lambda: order.append(("warm", sim.now)))
    for user_d, irq_d in pairs:
        cpu.submit(USER, "user", user_d, lambda: order.append(("user", sim.now)))
        cpu.submit(HARDIRQ, "irq", irq_d, lambda: order.append(("irq", sim.now)))
    sim.run()
    # Everything was queued while "warm" ran, so after it completes the
    # dispatcher must drain every hardirq before the first user item.
    kinds = [kind for kind, _t in order if kind != "warm"]
    assert kinds == ["irq"] * len(pairs) + ["user"] * len(pairs)


# ----------------------------------------------------------------------
# Idle start: the same run as queue-then-dispatch
# ----------------------------------------------------------------------


class QueueThenDispatch(Cpu):
    """The reference core: every submit queues, then dispatches if idle,
    and every completion dispatches if still idle."""

    __slots__ = ()

    def submit(self, context, label, duration, fn=None, *args):
        self._queues[context].append((label, duration, fn, args))
        if self._running is None:
            self._dispatch()

    def submit_multi(self, context, names, costs, fn=None, *args):
        self._queues[context].append((names, costs, fn, args))
        if self._running is None:
            self._dispatch()

    def _dispatch(self):
        for context, queue in enumerate(self._queues):
            if queue:
                break
        else:
            return
        item = queue.popleft()
        label, duration, fn, args = item
        self._running = item
        if isinstance(duration, list):
            duration = self.acct.charge_items(self.index, context, label, duration)
        else:
            self.acct.charge(self.index, context, label, duration)
        self.monitor.on_cpu_start(self.index, self.sim.now, duration)
        self.sim.schedule(duration, self._on_complete, fn, args)

    def _complete(self, fn, args):
        self._running = None
        self.monitor.on_cpu_complete(self.index, self.sim.now)
        if fn is not None:
            fn(*args)
        if self._running is None:
            self._dispatch()


class StartLog:
    """The monitor hook: logs each start and completion."""

    def __init__(self):
        self.calls = []

    def on_cpu_start(self, index, now, duration):
        self.calls.append(("start", now, duration))

    def on_cpu_complete(self, index, now):
        self.calls.append(("complete", now))


#: ``(context, multi, costs)``: one ``submit`` of ``costs[0]``, or one
#: ``submit_multi`` of all of them.
submits = st.tuples(
    st.sampled_from([HARDIRQ, SOFTIRQ, USER]),
    st.booleans(),
    st.lists(
        st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=10.0)),
        min_size=1,
        max_size=3,
    ),
)
#: ``(time, submit, follow-ups)``: the submit is made by an event at
#: ``time``, and each follow-up from its completion callback, when other
#: contexts may hold queued work.
scripts = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 1.0, 2.5, 7.0, 40.0]),
        submits,
        st.lists(submits, max_size=3),
    ),
    min_size=1,
    max_size=15,
)


def run_script(cpu_class, script):
    sim = Simulator()
    acct = CpuAccounting()
    cpu = cpu_class(sim, 0, acct)
    cpu.monitor = StartLog()
    done = []
    tags = iter(range(1000))

    def submit(spec, follow_ups):
        context, multi, costs = spec
        tag = next(tags)

        def finish():
            done.append((tag, sim.now))
            for follow_up in follow_ups:
                submit(follow_up, ())

        if multi:
            names = [f"{tag}.{index}" for index in range(len(costs))]
            cpu.submit_multi(context, names, list(costs), finish)
        else:
            cpu.submit(context, str(tag), costs[0], finish)

    for time, spec, follow_ups in script:
        sim.schedule(time, submit, spec, follow_ups)
    sim.run()
    return (
        done,
        cpu.monitor.calls,
        # Labels are unique per item, so first-charge order is start order.
        list(acct._label_order),
        list(acct.total_by_label().items()),
        acct.busy_us(0),
        [acct.busy_us_context(0, context) for context in (HARDIRQ, SOFTIRQ, USER)],
        cpu.busy,
        cpu.queued(),
    )


@given(scripts)
def test_idle_start_matches_queue_then_dispatch(script):
    """Starting an item at once on an idle, empty core gives the same
    start order, completion times and charges (``==``) as queueing it
    and dispatching."""
    assert run_script(Cpu, script) == run_script(QueueThenDispatch, script)
