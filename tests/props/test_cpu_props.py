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
