"""Unit tests for traffic processes and flow senders."""

import random

import pytest

from repro.kernel.costs import CostModel
from repro.kernel.skb import PROTO_TCP, PROTO_UDP, FlowKey
from repro.kernel.stack import StackConfig
from repro.overlay.host import Host
from repro.sim.engine import Simulator
from repro.workloads.flows import TcpSender, UdpSender
from repro.workloads.traffic import (
    ConstantRate,
    HotspotSchedule,
    PoissonRate,
    Saturating,
)


class TestTraffic:
    def test_constant_rate_gap(self):
        rng = random.Random(0)
        assert ConstantRate(1e6).next_gap_us(rng) == pytest.approx(1.0)

    def test_poisson_mean(self):
        rng = random.Random(0)
        process = PoissonRate(100000.0)  # mean gap 10us
        gaps = [process.next_gap_us(rng) for _ in range(20000)]
        assert sum(gaps) / len(gaps) == pytest.approx(10.0, rel=0.05)

    def test_saturating_zero_gap(self):
        assert Saturating().next_gap_us(random.Random(0)) == 0.0

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            ConstantRate(0.0)
        with pytest.raises(ValueError):
            PoissonRate(-1.0)

    def test_hotspot_schedule_steps(self):
        schedule = HotspotSchedule([(0.0, 1000.0), (500.0, 4000.0)])
        assert schedule.rate_at(0.0) == 1000.0
        assert schedule.rate_at(499.0) == 1000.0
        assert schedule.rate_at(500.0) == 4000.0
        rng = random.Random(0)
        assert schedule.next_gap_us(rng, 600.0) == pytest.approx(250.0)

    def test_hotspot_validation(self):
        with pytest.raises(ValueError):
            HotspotSchedule([])
        with pytest.raises(ValueError):
            HotspotSchedule([(10.0, 1.0), (0.0, 2.0)])


def make_rig(mode="host"):
    sim = Simulator()
    host = Host(sim, StackConfig(mode=mode), num_cpus=8)
    link = host.attach_ingress(100.0)
    return sim, host, link


class TestUdpSender:
    def test_messages_reach_nic(self):
        sim, host, link = make_rig()
        flow = FlowKey.make(1, host.host_ip, PROTO_UDP, flow_id=1)
        host.stack.open_socket(flow, app_cpu=2)
        sender = UdpSender(
            sim, link, host.stack, flow, 64, CostModel(),
            random.Random(0), ConstantRate(100000.0),
        )
        sender.start(until_us=100.0)
        sim.run(until=200.0)
        assert sender.messages_sent >= 9
        assert host.stack.nic.rx_packets == sender.frames_sent

    def test_fragmented_message_produces_frames(self):
        sim, host, link = make_rig()
        flow = FlowKey.make(1, host.host_ip, PROTO_UDP, flow_id=1)
        host.stack.open_socket(flow, app_cpu=2)
        sender = UdpSender(
            sim, link, host.stack, flow, 65507, CostModel(),
            random.Random(0), ConstantRate(1000.0),
        )
        sender.start(until_us=100.0)
        sim.run(until=2000.0)
        assert sender.frames_sent == sender.messages_sent * 45

    def test_stop_halts_sending(self):
        sim, host, link = make_rig()
        flow = FlowKey.make(1, host.host_ip, PROTO_UDP, flow_id=1)
        host.stack.open_socket(flow, app_cpu=2)
        sender = UdpSender(
            sim, link, host.stack, flow, 64, CostModel(),
            random.Random(0), ConstantRate(100000.0),
        )
        sender.start()
        sim.run(until=50.0)
        sender.stop()
        count = sender.messages_sent
        sim.run(until=500.0)
        assert sender.messages_sent <= count + 1

    def test_until_bound_respected(self):
        sim, host, link = make_rig()
        flow = FlowKey.make(1, host.host_ip, PROTO_UDP, flow_id=1)
        host.stack.open_socket(flow, app_cpu=2)
        sender = UdpSender(
            sim, link, host.stack, flow, 64, CostModel(),
            random.Random(0), ConstantRate(100000.0),
        )
        sender.start(until_us=100.0)
        sim.run(until=1000.0)
        assert sender.messages_sent <= 12

    def test_shared_state_keeps_msg_ids_unique(self):
        sim, host, link = make_rig()
        flow = FlowKey.make(1, host.host_ip, PROTO_UDP, flow_id=1)
        host.stack.open_socket(flow, app_cpu=2)
        from repro.workloads.flows import FlowState

        shared = FlowState()
        senders = [
            UdpSender(
                sim, link, host.stack, flow, 64, CostModel(),
                random.Random(i), ConstantRate(50000.0), shared_state=shared,
            )
            for i in range(3)
        ]
        for sender in senders:
            sender.start(until_us=200.0)
        sim.run(until=500.0)
        total = sum(s.messages_sent for s in senders)
        assert shared.msg_counter == total

    def test_saturating_paced_by_tx_cost(self):
        sim, host, link = make_rig()
        flow = FlowKey.make(1, host.host_ip, PROTO_UDP, flow_id=1)
        host.stack.open_socket(flow, app_cpu=2)
        sender = UdpSender(
            sim, link, host.stack, flow, 16, CostModel(),
            random.Random(0), Saturating(),
        )
        sender.start(until_us=1000.0)
        sim.run(until=1000.0)
        expected = 1000.0 / CostModel().tx_cost_us(16, overlay=False)
        assert sender.messages_sent == pytest.approx(expected, rel=0.05)


class TestTcpSender:
    def test_window_limits_inflight(self):
        sim, host, link = make_rig()
        flow = FlowKey.make(1, host.host_ip, PROTO_TCP, flow_id=1)
        host.stack.open_socket(flow, app_cpu=2)
        sender = TcpSender(
            sim, link, host.stack, flow, 4096, CostModel(),
            random.Random(0), window_msgs=4,
        )
        sender.start()
        sim.run(until=50.0)
        # Without credits, exactly the window is in flight.
        assert sender.messages_sent == 4
        assert sender.outstanding == 4

    def test_credit_releases_window(self):
        sim, host, link = make_rig()
        flow = FlowKey.make(1, host.host_ip, PROTO_TCP, flow_id=1)
        host.stack.open_socket(flow, app_cpu=2)
        sender = TcpSender(
            sim, link, host.stack, flow, 4096, CostModel(),
            random.Random(0), window_msgs=2,
        )
        sender.start()
        sim.run(until=50.0)
        sender.credit()
        sim.run(until=100.0)
        assert sender.messages_sent == 3
        assert sender.completed_messages == 1

    def test_invalid_window(self):
        sim, host, link = make_rig()
        flow = FlowKey.make(1, host.host_ip, PROTO_TCP, flow_id=1)
        with pytest.raises(ValueError):
            TcpSender(
                sim, link, host.stack, flow, 64, CostModel(),
                random.Random(0), window_msgs=0,
            )

    def test_segments_sized_by_mss(self):
        sim, host, link = make_rig()
        flow = FlowKey.make(1, host.host_ip, PROTO_TCP, flow_id=1)
        host.stack.open_socket(flow, app_cpu=2)
        sender = TcpSender(
            sim, link, host.stack, flow, 4096, CostModel(),
            random.Random(0), window_msgs=1,
        )
        sender.start()
        sim.run(until=50.0)
        assert sender.frames_sent == 3  # 4096 bytes at 1460 MSS
