"""Unit tests for the CPU core model."""

import pytest

from repro.hw.cpu import HARDIRQ, SOFTIRQ, USER, Cpu
from repro.metrics.cpuacct import CpuAccounting
from repro.sim.engine import Simulator


def make_cpu():
    sim = Simulator()
    acct = CpuAccounting()
    return sim, acct, Cpu(sim, 0, acct)


def test_work_executes_after_duration():
    sim, _acct, cpu = make_cpu()
    done = []
    cpu.submit(SOFTIRQ, "fn", 5.0, done.append, "x")
    sim.run()
    assert done == ["x"]
    assert sim.now == 5.0


def test_serialized_execution():
    sim, _acct, cpu = make_cpu()
    times = []
    cpu.submit(SOFTIRQ, "a", 5.0, lambda: times.append(sim.now))
    cpu.submit(SOFTIRQ, "b", 3.0, lambda: times.append(sim.now))
    sim.run()
    assert times == [5.0, 8.0]


def test_priority_dispatch_hardirq_first():
    sim, _acct, cpu = make_cpu()
    order = []
    # Occupy the core, then queue USER before HARDIRQ: the hardirq must
    # still run first once the core frees up.
    cpu.submit(SOFTIRQ, "busy", 10.0, order.append, "busy")
    cpu.submit(USER, "user", 1.0, order.append, "user")
    cpu.submit(HARDIRQ, "irq", 1.0, order.append, "irq")
    sim.run()
    assert order == ["busy", "irq", "user"]


def test_no_preemption_of_running_work():
    sim, _acct, cpu = make_cpu()
    order = []
    cpu.submit(USER, "long", 10.0, order.append, "long")
    sim.run(until=1.0)
    cpu.submit(HARDIRQ, "irq", 1.0, order.append, "irq")
    sim.run()
    # The long user work finishes before the hardirq starts.
    assert order == ["long", "irq"]
    assert sim.now == 11.0


def test_accounting_charges_label_and_context():
    sim, acct, cpu = make_cpu()
    cpu.submit(SOFTIRQ, "ip_rcv", 7.0)
    sim.run()
    assert acct.busy_us_label(0, "ip_rcv") == 7.0
    assert acct.busy_us_context(0, SOFTIRQ) == 7.0
    assert acct.busy_us(0) == 7.0


def test_submit_multi_splits_charges():
    sim, acct, cpu = make_cpu()
    done = []
    cpu.submit_multi(SOFTIRQ, ["a", "b"], [2.0, 3.0], done.append, True)
    sim.run()
    assert done == [True]
    assert acct.busy_us_label(0, "a") == 2.0
    assert acct.busy_us_label(0, "b") == 3.0
    assert sim.now == 5.0


def test_negative_duration_rejected():
    _sim, _acct, cpu = make_cpu()
    with pytest.raises(ValueError):
        cpu.submit(USER, "x", -1.0)


def test_queued_counts():
    sim, _acct, cpu = make_cpu()
    cpu.submit(USER, "a", 5.0)
    cpu.submit(USER, "b", 5.0)
    cpu.submit(HARDIRQ, "c", 5.0)
    # One is running, two queued.
    assert cpu.queued() == 2
    assert cpu.queued(USER) == 1
    assert cpu.queued(HARDIRQ) == 1
    sim.run()
    assert cpu.queued() == 0
    assert not cpu.busy


def test_completion_can_submit_more_work():
    sim, _acct, cpu = make_cpu()
    order = []

    def resubmit():
        order.append("first")
        cpu.submit(USER, "again", 1.0, order.append, "second")

    cpu.submit(USER, "first", 1.0, resubmit)
    sim.run()
    assert order == ["first", "second"]
    assert sim.now == 2.0


def test_zero_duration_work():
    sim, _acct, cpu = make_cpu()
    done = []
    cpu.submit(USER, "instant", 0.0, done.append, 1)
    sim.run()
    assert done == [1]
