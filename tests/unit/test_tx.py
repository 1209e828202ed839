"""Unit tests for the transmit path (qdisc + TxStack)."""

import pytest

from repro.hw.link import Link
from repro.hw.topology import Machine
from repro.kernel.costs import CostModel
from repro.kernel.skb import PROTO_TCP, PROTO_UDP, FlowKey, Skb
from repro.kernel.tx import Qdisc, TxStack
from repro.sim.engine import Simulator


def make_env(bandwidth=100.0, overlay=True, qdisc_capacity=1000):
    sim = Simulator()
    machine = Machine(sim, num_cpus=4)
    link = Link(sim, bandwidth, propagation_us=1.0)
    tx = TxStack(
        machine, link, CostModel(), overlay=overlay, qdisc_capacity=qdisc_capacity
    )
    return sim, machine, link, tx


class TestQdisc:
    def test_frames_drain_in_order(self):
        sim = Simulator()
        link = Link(sim, 10.0, propagation_us=0.0)
        qdisc = Qdisc(sim, link)
        out = []
        for index in range(5):
            flow = FlowKey.make(1, 2, flow_id=1)
            skb = Skb(flow, size=1250, wire_size=1250, seq=index)
            qdisc.enqueue(skb, lambda s: out.append(s.seq))
        sim.run()
        assert out == [0, 1, 2, 3, 4]
        assert sim.now == pytest.approx(5.0)  # 5 x 1 us serialization

    def test_overflow_drops(self):
        sim = Simulator()
        link = Link(sim, 0.001, propagation_us=0.0)  # ~glacial link
        qdisc = Qdisc(sim, link, capacity_packets=3)
        accepted = [
            qdisc.enqueue(Skb(FlowKey.make(1, 2, flow_id=1), size=100), lambda s: None)
            for _ in range(6)
        ]
        # One frame is in flight immediately; three queue; the rest drop.
        assert accepted.count(True) == 4
        assert qdisc.drops == 2


class TestTxStack:
    def test_sendmsg_charges_app_core(self):
        sim, machine, link, tx = make_env()
        flow = FlowKey.make(1, 2, PROTO_UDP, flow_id=1)
        got = []
        tx.send_message(flow, 512, app_cpu=2, deliver=got.append)
        sim.run()
        assert len(got) == 1
        assert machine.acct.busy_us_label(2, "sendmsg") > 0
        assert tx.messages_sent == 1

    def test_overlay_tx_costs_more_than_host(self):
        costs = {}
        for overlay in (False, True):
            sim, machine, link, tx = make_env(overlay=overlay)
            flow = FlowKey.make(1, 2, PROTO_UDP, flow_id=1)
            tx.send_message(flow, 512, app_cpu=2, deliver=lambda s: None)
            sim.run()
            costs[overlay] = machine.acct.busy_us_label(2, "sendmsg")
        assert costs[True] > costs[False]

    def test_fragmentation_and_encap_on_wire(self):
        sim, machine, link, tx = make_env(overlay=True)
        flow = FlowKey.make(1, 2, PROTO_UDP, flow_id=1)
        frames = []
        tx.send_message(flow, 4096, app_cpu=0, deliver=frames.append)
        sim.run()
        assert len(frames) == 3  # 4 KB over the 1450-byte overlay MTU
        assert all(f.encapsulated for f in frames)
        assert sum(f.msg_size for f in frames) == 3 * 4096
        assert [f.frag_index for f in frames] == [0, 1, 2]

    def test_wire_seq_monotonic_across_messages(self):
        sim, machine, link, tx = make_env()
        flow = FlowKey.make(1, 2, PROTO_TCP, flow_id=1)
        frames = []
        for msg_id in range(3):
            tx.send_message(
                flow, 4096, app_cpu=1, deliver=frames.append, msg_id=msg_id
            )
        sim.run()
        seqs = [f.seq for f in frames]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_tx_into_rx_stack_end_to_end(self):
        """Full duplex: a simulated sender feeding the simulated receiver."""
        from repro.kernel.stack import StackConfig
        from repro.overlay.host import Host

        sim = Simulator()
        receiver = Host(sim, StackConfig(mode="overlay"), num_cpus=8, name="rx")
        link = receiver.attach_ingress(100.0)
        sender_machine = Machine(sim, num_cpus=4)
        tx = TxStack(sender_machine, link, CostModel(), overlay=True)

        container = receiver.launch_container("c")
        flow = FlowKey.make(
            1, container.private_ip, PROTO_UDP, flow_id=receiver.ctx.new_flow_id()
        )
        got = []
        receiver.stack.open_socket(
            flow, app_cpu=2, on_message=lambda s, skb, lat: got.append(skb)
        )
        for msg_id in range(20):
            sim.schedule(
                msg_id * 5.0,
                tx.send_message,
                flow,
                256,
                1,
                lambda skb: receiver.stack.inject(skb),
                msg_id,
            )
        sim.run(until=100_000.0)
        assert len(got) == 20
        assert [skb.msg_id for skb in got] == sorted(s.msg_id for s in got)
        # Sender-side CPU was charged on the sender's machine, not the
        # receiver's.
        assert sender_machine.acct.busy_us_label(1, "sendmsg") > 0
        assert receiver.machine.acct.busy_us_label(1, "sendmsg") == 0
