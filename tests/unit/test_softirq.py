"""Unit tests for the softirq/NAPI subsystem."""

import pytest

from repro.hw.nic import Nic
from repro.hw.topology import Machine
from repro.kernel.costs import CostModel
from repro.kernel.skb import FlowKey, Skb
from repro.kernel.softirq import BacklogNapi, SoftirqNet
from repro.kernel.stages import Stage, Step, Transition
from repro.metrics.counters import NET_RX, RES
from repro.metrics.counters import HARDIRQ as IRQ_HARD
from repro.sim.engine import Simulator


class CollectExit(Transition):
    """Terminal transition that records deliveries for assertions."""

    def __init__(self):
        self.delivered = []

    def route(self, skb, cpu_index, stack):
        self.delivered.append((skb, cpu_index))


class DummyStack:
    def __init__(self, softnet=None):
        self.softnet = softnet

    def enqueue_backlog(self, target_cpu, skb, stage, from_cpu):
        self.softnet.enqueue_backlog(target_cpu, skb, stage, from_cpu)

    def deliver_to_socket(self, skb, cpu_index):
        raise AssertionError("not used in these tests")


def make_env(num_cpus=4, **kwargs):
    sim = Simulator()
    machine = Machine(sim, num_cpus=num_cpus)
    stack = DummyStack()
    softnet = SoftirqNet(machine, CostModel(), stack=stack, **kwargs)
    stack.softnet = softnet
    return sim, machine, softnet


def simple_stage(name="stage", cost=1.0, exit=None):
    exit = exit or CollectExit()
    return Stage(name, 2, [Step(name + "_fn", lambda skb: cost)], exit), exit


def make_skb(sport=1):
    return Skb(FlowKey.make(1, 2, sport=sport, flow_id=sport), size=100)


class TestBacklogEnqueue:
    def test_local_enqueue_processed(self):
        sim, machine, softnet = make_env()
        stage, exit = simple_stage()
        softnet.enqueue_backlog(0, make_skb(), stage, from_cpu=0)
        sim.run()
        assert len(exit.delivered) == 1
        assert exit.delivered[0][1] == 0

    def test_remote_enqueue_pays_ipi_and_res(self):
        sim, machine, softnet = make_env()
        stage, exit = simple_stage()
        softnet.enqueue_backlog(2, make_skb(), stage, from_cpu=0)
        sim.run()
        assert exit.delivered[0][1] == 2
        assert machine.interrupts.on_cpu(RES, 2) == 1
        # The IPI delay plus processing pushed completion past the costs.
        assert sim.now >= CostModel().ipi_delay_us

    def test_remote_overflow_drops(self):
        sim, machine, softnet = make_env(backlog_capacity=4)
        stage, exit = simple_stage(cost=100.0)
        for i in range(10):
            softnet.enqueue_backlog(1, make_skb(sport=i), stage, from_cpu=0)
        assert softnet.backlog_drops() > 0

    def test_local_enqueue_never_drops(self):
        sim, machine, softnet = make_env(backlog_capacity=2)
        stage, exit = simple_stage(cost=100.0)
        for i in range(10):
            softnet.enqueue_backlog(1, make_skb(sport=i), stage, from_cpu=1)
        assert softnet.backlog_drops() == 0
        assert softnet.backlog_depth(1) >= 8

    def test_softirq_raise_demand_counted_per_call(self):
        sim, machine, softnet = make_env()
        stage, _exit = simple_stage()
        for i in range(5):
            softnet.enqueue_backlog(1, make_skb(sport=i), stage, from_cpu=0)
        # Demand side: one raise per enqueued packet.
        assert softnet.softirq_raises == 5
        # /proc/softirqs side: coalesced — the napi was already scheduled
        # after the first packet (kernel ____napi_schedule semantics).
        assert machine.interrupts.on_cpu(NET_RX, 1) == 1

    def test_stage_executions_counted_per_packet(self):
        sim, machine, softnet = make_env()
        stage, _exit = simple_stage("demo")
        for i in range(7):
            softnet.enqueue_backlog(0, make_skb(sport=i), stage, from_cpu=0)
        sim.run()
        assert softnet.stage_executions["demo"] == 7


class TestPolling:
    def test_batch_respects_budget_and_rekicks(self):
        sim, machine, softnet = make_env(budget=8, batch_max=4)
        stage, exit = simple_stage(cost=0.5)
        for i in range(20):
            softnet.enqueue_backlog(0, make_skb(sport=i), stage, from_cpu=0)
        sim.run()
        assert len(exit.delivered) == 20

    def test_fifo_order_within_queue(self):
        sim, machine, softnet = make_env()
        stage, exit = simple_stage()
        skbs = [make_skb(sport=i) for i in range(10)]
        for skb in skbs:
            softnet.enqueue_backlog(0, skb, stage, from_cpu=0)
        sim.run()
        assert [skb for skb, _cpu in exit.delivered] == skbs

    def test_round_robin_between_stage_queues(self):
        """Two stages on one core share the softirq fairly (NAPI rotation)."""
        sim, machine, softnet = make_env(batch_max=2)
        stage_a, exit_a = simple_stage("a", cost=1.0)
        stage_b, exit_b = simple_stage("b", cost=1.0)
        for i in range(8):
            softnet.enqueue_backlog(0, make_skb(sport=i), stage_a, from_cpu=0)
        for i in range(8):
            softnet.enqueue_backlog(0, make_skb(sport=100 + i), stage_b, from_cpu=0)
        # Run just long enough for roughly half the work.
        sim.run(until=10.0)
        assert exit_a.delivered and exit_b.delivered  # neither starved

    def test_chained_stages_across_cpus(self):
        sim, machine, softnet = make_env()
        final, exit = simple_stage("final")

        class HopExit(Transition):
            def route(self, skb, cpu_index, stack):
                stack.enqueue_backlog(2, skb, final, from_cpu=cpu_index)

        first = Stage("first", 2, [Step("fn", lambda skb: 1.0)], HopExit())
        softnet.enqueue_backlog(1, make_skb(), first, from_cpu=0)
        sim.run()
        assert exit.delivered[0][1] == 2

    def test_softirq_switch_charged_on_stage_change(self):
        sim, machine, softnet = make_env()
        stage_a, _ = simple_stage("a")
        stage_b, _ = simple_stage("b")
        softnet.enqueue_backlog(0, make_skb(1), stage_a, from_cpu=0)
        softnet.enqueue_backlog(0, make_skb(2), stage_b, from_cpu=0)
        sim.run()
        assert machine.acct.busy_us_label(0, "softirq_switch") >= 2 * 0.59


class TestNicAttach:
    def test_hardirq_and_driver_poll(self):
        sim, machine, softnet = make_env()
        stage, exit = simple_stage("pnic", cost=0.5)
        nic = Nic(num_queues=1, irq_cpus=[0])
        softnet.attach_nic(nic, stage)
        flow = FlowKey.make(1, 2, flow_id=1)
        for i in range(5):
            nic.receive(Skb(flow, size=100, seq=i))
        sim.run()
        assert len(exit.delivered) == 5
        assert machine.interrupts.on_cpu(IRQ_HARD, 0) == 1  # NAPI masked the rest

    def test_irq_reenabled_after_drain(self):
        sim, machine, softnet = make_env()
        stage, exit = simple_stage("pnic", cost=0.5)
        nic = Nic(num_queues=1, irq_cpus=[0])
        softnet.attach_nic(nic, stage)
        flow = FlowKey.make(1, 2, flow_id=1)
        nic.receive(Skb(flow, size=100))
        sim.run()
        nic.receive(Skb(flow, size=100))
        sim.run()
        assert machine.interrupts.on_cpu(IRQ_HARD, 0) == 2
        assert len(exit.delivered) == 2

    def test_multi_queue_irq_affinity(self):
        sim, machine, softnet = make_env()
        stage, exit = simple_stage("pnic", cost=0.5)
        nic = Nic(num_queues=2, irq_cpus=[0, 1])
        softnet.attach_nic(nic, stage)
        # Find flows hashing to each queue.
        flows = [FlowKey.make(1, 2, sport=sport, flow_id=sport) for sport in range(32)]
        for flow in flows:
            nic.receive(Skb(flow, size=64))
        sim.run()
        served_cpus = {cpu for _skb, cpu in exit.delivered}
        assert served_cpus == {0, 1}


class TestBacklogNapi:
    def test_take_respects_limit(self):
        napi = BacklogNapi(capacity=100)
        stage, _ = simple_stage()
        for i in range(10):
            napi.enqueue(make_skb(i), stage)
        items = napi.take(3)
        assert len(items) == 3
        assert napi.has_work()

    def test_capacity_drop(self):
        napi = BacklogNapi(capacity=2)
        stage, _ = simple_stage()
        assert napi.enqueue(make_skb(1), stage)
        assert napi.enqueue(make_skb(2), stage)
        assert not napi.enqueue(make_skb(3), stage)
        assert napi.drops == 1
