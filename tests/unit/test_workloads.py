"""Unit tests for traffic processes and flow senders."""

import random

import pytest

from repro.kernel.costs import CostModel
from repro.kernel.skb import PROTO_TCP, PROTO_UDP, FlowKey
from repro.kernel.stack import StackConfig
from repro.overlay.host import Host
from repro.sim.engine import Simulator
from repro.sim.errors import ConfigurationError
from repro.workloads.flows import TcpSender, UdpSender
from repro.workloads.sockperf import Testbed
from repro.workloads.traffic import (
    ConstantRate,
    HotspotSchedule,
    PoissonRate,
    Saturating,
)


class TestTraffic:
    def test_constant_rate_gap(self):
        rng = random.Random(0)
        assert ConstantRate(1e6).next_gap_us(rng, 0.0) == pytest.approx(1.0)

    def test_poisson_mean(self):
        rng = random.Random(0)
        process = PoissonRate(100000.0)  # mean gap 10us
        gaps = [process.next_gap_us(rng, 0.0) for _ in range(20000)]
        assert sum(gaps) / len(gaps) == pytest.approx(10.0, rel=0.05)

    def test_saturating_zero_gap(self):
        assert Saturating().next_gap_us(random.Random(0), 0.0) == 0.0

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

    @pytest.mark.parametrize(
        "sender_cls, extra",
        [(UdpSender, {"process": Saturating()}), (TcpSender, {})],
    )
    @pytest.mark.parametrize("message_size", [0, -1])
    def test_bad_message_size_rejected_at_build(
        self, sender_cls, extra, message_size
    ):
        sim, host, link = make_rig()
        flow = FlowKey.make(1, host.host_ip, PROTO_UDP, flow_id=1)
        pending = sim.pending()
        with pytest.raises(ValueError, match="message size must be positive"):
            sender_cls(
                sim, link, host.stack, flow, message_size, CostModel(),
                random.Random(0), **extra,
            )
        assert sim.pending() == pending  # raised before anything was scheduled

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


class TestTestbedLayout:
    """A layout the testbed cannot build raises, naming the argument."""

    @pytest.mark.parametrize("argument", ["app_cpus", "irq_cpus"])
    def test_empty_cpu_list_rejected(self, argument):
        with pytest.raises(ConfigurationError, match=argument):
            Testbed(mode="overlay", **{argument: []})

    @pytest.mark.parametrize("argument", ["app_cpus", "irq_cpus", "rps_cpus"])
    @pytest.mark.parametrize("cpu", [99, 20, -1])
    def test_cpu_outside_machine_rejected(self, argument, cpu):
        with pytest.raises(ConfigurationError, match=argument):
            Testbed(mode="overlay", **{argument: [cpu]})

    def test_app_cpu_outside_machine_rejected(self):
        bed = Testbed(mode="overlay")
        with pytest.raises(ConfigurationError, match="app_cpu"):
            bed.add_udp_flow(64, app_cpu=20)

    @pytest.mark.parametrize("clients", [0, -1])
    def test_fewer_than_one_client_rejected(self, clients):
        bed = Testbed(mode="overlay")
        with pytest.raises(ConfigurationError, match="clients"):
            bed.add_udp_flow(64, clients=clients)
        assert bed.senders == []

    def test_empty_rps_cpus_turns_rps_off(self):
        bed = Testbed(mode="overlay", rps_cpus=[])
        assert bed.stack.rps is None

    @pytest.mark.parametrize("warmup_ms", [-5.0, float("nan")])
    def test_negative_warmup_rejected_before_the_first_event(self, warmup_ms):
        bed = Testbed(mode="overlay")
        bed.add_udp_flow(64, rate_pps=10_000.0)
        with pytest.raises(ConfigurationError, match="warmup_ms"):
            bed.run(warmup_ms=warmup_ms, measure_ms=2.0)
        assert bed.sim.events_processed == 0
        assert bed.sim.now == 0.0

    @pytest.mark.parametrize("measure_ms", [0.0, -2.0, float("nan")])
    def test_empty_measure_window_rejected_before_the_first_event(self, measure_ms):
        bed = Testbed(mode="overlay")
        bed.add_udp_flow(64, rate_pps=10_000.0)
        with pytest.raises(ConfigurationError, match="measure_ms"):
            bed.run(warmup_ms=1.0, measure_ms=measure_ms)
        assert bed.sim.events_processed == 0
        assert bed.sim.now == 0.0
