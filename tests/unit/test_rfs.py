"""Unit/integration tests for Receive Flow Steering (RFS)."""

import pytest

from repro.kernel.skb import FlowKey, Skb
from repro.kernel.stack import StackConfig
from repro.kernel.steering import Rfs
from repro.overlay.host import Host
from repro.sim.engine import Simulator
from repro.sim.errors import ConfigurationError
from repro.workloads.sockperf import Testbed


def make_skb(sport=1000):
    return Skb(FlowKey.make(1, 2, sport=sport, flow_id=sport), size=64)


class TestRfsUnit:
    def test_falls_back_to_rps_without_entry(self):
        rfs = Rfs([1, 2, 3])
        skb = make_skb()
        assert rfs.get_rps_cpu(skb, 0) in (1, 2, 3)
        assert rfs.misses == 1

    def test_steers_to_recorded_consumer(self):
        rfs = Rfs([1, 2, 3])
        skb = make_skb()
        rfs.record_consumer(skb.flow.flow_id, 7)
        assert rfs.get_rps_cpu(skb, 0) == 7
        assert rfs.hits == 1

    def test_consumer_migration_updates_table(self):
        rfs = Rfs([1])
        skb = make_skb()
        rfs.record_consumer(skb.flow.flow_id, 5)
        rfs.record_consumer(skb.flow.flow_id, 6)
        assert rfs.get_rps_cpu(skb, 0) == 6


class TestRfsInStack:
    def test_unknown_steering_flavour_rejected(self):
        with pytest.raises(ConfigurationError):
            Host(
                Simulator(),
                StackConfig(mode="host", steering="xps"),
                num_cpus=4,
            )

    def test_rfs_learns_consumer_at_bind(self):
        sim = Simulator()
        host = Host(
            sim, StackConfig(mode="host", steering="rfs", rps_cpus=[1, 2]), num_cpus=8
        )
        flow = FlowKey.make(1, host.host_ip, flow_id=1)
        host.stack.open_socket(flow, app_cpu=5)
        assert host.stack.rps.get_rps_cpu(Skb(flow, size=16), 0) == 5

    def test_rfs_runs_stack_next_to_app(self):
        """With RFS, the host stack stage executes on the app's core."""
        sim = Simulator()
        host = Host(
            sim, StackConfig(mode="host", steering="rfs", rps_cpus=[1, 2]), num_cpus=8
        )
        flow = FlowKey.make(1, host.host_ip, flow_id=1)
        host.stack.open_socket(flow, app_cpu=5)
        for index in range(30):
            skb = Skb(
                flow, size=64, wire_size=130, msg_id=index, msg_size=64,
                seq=index, t_send=index * 2.0,
            )
            sim.schedule(index * 2.0, host.stack.inject, skb)
        sim.run(until=10_000.0)
        acct = host.machine.acct
        assert acct.busy_us_label(5, "l4_rcv") > 0
        assert acct.busy_us_label(1, "l4_rcv") == 0

    def test_rfs_end_to_end_delivery(self):
        bed = Testbed(mode="overlay", steering="rfs", rps_cpus=[1, 2])
        bed.add_udp_flow(64, clients=1, rate_pps=30_000)
        result = bed.run(warmup_ms=3, measure_ms=8)
        assert result.messages_delivered > 200
        assert result.reordered_messages == 0
        assert bed.stack.rps.hits > 0
