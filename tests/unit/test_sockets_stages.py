"""Unit tests for sockets, app readers and the stage machinery."""

import pytest

from repro.hw.cache import LocalityModel
from repro.hw.topology import Machine
from repro.kernel.costs import CostModel, FuncCost
from repro.kernel.skb import PROTO_TCP, FlowKey, Skb
from repro.kernel.sockets import Socket, SocketTable
from repro.kernel.stages import EnqueueTransition, Stage, Step
from repro.metrics.tracing import PacketTracer
from repro.sim.engine import Simulator


def make_socket(on_message=None, rmem=4, app_cpu=0):
    sim = Simulator()
    machine = Machine(sim, num_cpus=2)
    sock = Socket(sim, app_cpu, CostModel(), on_message=on_message, rmem_packets=rmem)
    sock.machine = machine
    return sim, machine, sock


def make_skb(flow=None, size=100, msg_id=0, msg_size=None):
    flow = flow or FlowKey.make(1, 2, flow_id=1)
    return Skb(flow, size=size, msg_id=msg_id, msg_size=msg_size or size)


class TestSocket:
    def test_enqueue_and_deliver(self):
        got = []
        sim, machine, sock = make_socket(
            on_message=lambda s, skb, lat: got.append((skb, lat))
        )
        skb = make_skb()
        skb.t_send = 0.0
        assert sock.enqueue(skb)
        sim.run()
        assert len(got) == 1
        assert got[0][1] == pytest.approx(sim.now)
        assert sock.delivered_messages == 1
        assert sock.delivered_bytes == 100

    def test_rmem_overflow_drops(self):
        sim, machine, sock = make_socket(rmem=2)
        for i in range(5):
            sock.enqueue(make_skb(msg_id=i))
        assert sock.drops >= 1

    def test_reader_charges_user_context(self):
        sim, machine, sock = make_socket()
        sock.enqueue(make_skb(size=1000))
        sim.run()
        expected = CostModel().copy_to_user.cost(1000)
        assert machine.acct.busy_us_label(0, "copy_to_user") == pytest.approx(expected)

    def test_partial_message_completion_by_bytes(self):
        """TCP partial skbs complete the message when bytes add up."""
        got = []
        sim, machine, sock = make_socket(
            on_message=lambda s, skb, lat: got.append(skb.msg_id)
        )
        flow = FlowKey.make(1, 2, PROTO_TCP, flow_id=1)
        part1 = Skb(flow, size=2000, msg_id=5, msg_size=4096)
        part2 = Skb(flow, size=2096, msg_id=5, msg_size=4096)
        sock.enqueue(part1)
        sim.run()
        assert got == []
        sock.enqueue(part2)
        sim.run()
        assert got == [5]
        assert sock.delivered_messages == 1

    def test_reorder_detection(self):
        sim, machine, sock = make_socket()
        flow = FlowKey.make(1, 2, flow_id=1)
        sock.enqueue(make_skb(flow=flow, msg_id=3))
        sim.run()
        sock.enqueue(make_skb(flow=flow, msg_id=1))
        sim.run()
        assert sock.reordered_messages == 1
        assert sock.delivered_messages == 2

    def test_in_order_no_false_positive(self):
        sim, machine, sock = make_socket(rmem=64)
        flow = FlowKey.make(1, 2, flow_id=1)
        for i in range(10):
            sock.enqueue(make_skb(flow=flow, msg_id=i))
        sim.run()
        assert sock.reordered_messages == 0

    def test_wakeup_latency_only_when_idle(self):
        sim, machine, sock = make_socket()
        sock.enqueue(make_skb(msg_id=0))
        sock.enqueue(make_skb(msg_id=1))
        sim.run()
        first_batch = sim.now
        # One wakeup plus two reads (the second read needs no wakeup).
        expected = CostModel().app_wakeup_us + 2 * CostModel().copy_to_user.cost(100)
        assert first_batch == pytest.approx(expected)


class TestSocketTable:
    def test_bind_and_lookup(self):
        table = SocketTable()
        sim, machine, sock = make_socket()
        flow = FlowKey.make(1, 2, flow_id=1)
        table.bind(flow, sock)
        assert table.lookup(flow) is sock
        assert table.lookup(FlowKey.make(3, 4, flow_id=2)) is None

    def test_multiple_flows_one_socket(self):
        table = SocketTable()
        _sim, _machine, sock = make_socket()
        a, b = FlowKey.make(1, 2, flow_id=1), FlowKey.make(3, 4, flow_id=2)
        table.bind(a, sock)
        table.bind(b, sock)
        assert table.sockets() == {sock}


def run_one(stage, skb, cpu_index=0, locality=None):
    """Run ``stage`` on a batch of one; return (exiting skb or None, charges)
    with the charges as ``(label, µs)`` pairs."""
    names, costs, outputs = [], [], []
    stage.run_batch(
        [skb], cpu_index, locality or LocalityModel(), names, costs, outputs,
        None, 0.0,
    )
    assert len(names) == len(costs)
    return (outputs[0] if outputs else None), list(zip(names, costs))


class TestStage:
    def test_run_batch_charges_each_step(self):
        stage = Stage(
            "s",
            2,
            [
                Step.simple("f1", FuncCost(1.0)),
                Step.simple("f2", FuncCost(2.0, 0.01)),
            ],
            exit=None,
        )
        skb = make_skb(size=100)
        out, charges = run_one(stage, skb)
        assert out is skb
        assert charges == [("f1", 1.0), ("f2", 3.0)]
        assert skb.dev_ifindex == 2

    def test_locality_multiplier_scales_charges(self):
        stage = Stage("s", 2, [Step.simple("f", FuncCost(2.0))], exit=None)
        skb = make_skb()
        skb.last_cpu = 1  # last touched on another core
        _out, charges = run_one(stage, skb, 0, LocalityModel(cross_core=1.5))
        assert charges == [("f", 3.0)]

    def test_zero_cost_steps_not_charged(self):
        stage = Stage("s", 2, [Step.simple("free", FuncCost(0.0))], exit=None)
        _out, charges = run_one(stage, make_skb())
        assert charges == []

    def test_effect_can_consume(self):
        stage = Stage(
            "s",
            2,
            [
                Step.simple("f1", FuncCost(1.0), effect=lambda skb, cpu: None),
                Step.simple("f2", FuncCost(5.0)),
            ],
            exit=None,
        )
        out, charges = run_one(stage, make_skb())
        assert out is None
        assert charges == [("f1", 1.0)]  # f2 never ran

    def test_effect_can_replace(self):
        replacement = make_skb(size=999)

        stage = Stage(
            "s",
            2,
            [
                Step.simple(
                    "merge", FuncCost(1.0), effect=lambda skb, cpu: replacement
                ),
                Step.simple("after", FuncCost(0.0, 0.001)),
            ],
            exit=None,
        )
        out, charges = run_one(stage, make_skb(size=1))
        assert out is replacement
        assert charges[1] == ("after", pytest.approx(0.999))

    def test_run_batch_records_one_exec_per_sampled_skb(self):
        stage = Stage("s", 2, [Step.simple("f", FuncCost(1.0))], exit=None)
        flow = FlowKey.make(1, 2, flow_id=1)
        skbs = [make_skb(flow, msg_id=msg_id) for msg_id in range(4)]
        tracer = PacketTracer(sample_every=2)
        stage.run_batch(skbs, 3, LocalityModel(), [], [], [], tracer, 7.0)
        assert [
            (trace.msg_id, [(e.time_us, e.kind, e.stage, e.cpu) for e in trace.events])
            for trace in tracer.traces(complete_only=False)
        ] == [(0, [(7.0, "exec", "s", 3)]), (2, [(7.0, "exec", "s", 3)])]

    def test_enqueue_transition_uses_selector(self):
        routed = []

        class FakeStack:
            def enqueue_backlog(self, skbs, stage, selector, from_cpu):
                for skb in skbs:
                    routed.append((selector(skb, from_cpu, 1), from_cpu))

        next_stage = Stage("next", 3, [], exit=None)
        transition = EnqueueTransition(next_stage, lambda skb, cpu, n: 7)
        transition.route([make_skb()], cpu_index=1, stack=FakeStack())
        assert routed == [(7, 1)]
