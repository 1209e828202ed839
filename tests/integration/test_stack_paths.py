"""Integration tests: full receive-path behaviour of host and overlay stacks.

These tests drive packets through the complete assembled pipeline (NIC →
hardirq → NAPI → RPS → stages → socket → app) and assert the structural
properties the paper reports: stage counts, softirq serialization on one
core for the vanilla overlay, in-order delivery, and device traversal.
"""

import pytest

from repro.core.config import FalconConfig
from repro.kernel.devices import (
    IFINDEX_PNIC,
    IFINDEX_VETH,
    IFINDEX_VXLAN,
)
from repro.kernel.skb import PROTO_UDP, FlowKey, Skb
from repro.kernel.stack import NetworkStack, StackConfig
from repro.overlay.host import Host
from repro.sim.engine import Simulator


def build(mode="host", falcon=None, **kwargs):
    sim = Simulator()
    host = Host(
        sim,
        StackConfig(mode=mode, falcon=falcon, rps_cpus=[1], **kwargs),
        num_cpus=8,
    )
    return sim, host


def send_packets(sim, host, flow, count, size=100, interval=2.0):
    for i in range(count):
        skb = Skb(
            flow,
            size=size + (50 if host.stack.is_overlay else 0),
            wire_size=size + 88,
            msg_id=i,
            msg_size=size,
            seq=i,
            t_send=sim.now + i * interval,
            encapsulated=host.stack.is_overlay,
        )
        sim.schedule(i * interval, host.stack.inject, skb)


class TestHostPath:
    def test_end_to_end_delivery(self):
        sim, host = build("host")
        flow = FlowKey.make(1, host.host_ip, PROTO_UDP, flow_id=1)
        got = []
        host.stack.open_socket(flow, app_cpu=2, on_message=lambda s, skb, lat: got.append(skb))
        send_packets(sim, host, flow, 20)
        sim.run(until=10000.0)
        assert len(got) == 20

    def test_messages_in_order(self):
        sim, host = build("host")
        flow = FlowKey.make(1, host.host_ip, PROTO_UDP, flow_id=1)
        order = []
        host.stack.open_socket(
            flow, app_cpu=2, on_message=lambda s, skb, lat: order.append(skb.msg_id)
        )
        send_packets(sim, host, flow, 50, interval=0.5)
        sim.run(until=10000.0)
        assert order == sorted(order)

    def test_stage_graph_host(self):
        _sim, host = build("host")
        assert set(host.stack.stages) == {"pnic", "hoststack"}

    def test_unroutable_counted(self):
        sim, host = build("host")
        flow = FlowKey.make(1, host.host_ip, PROTO_UDP, flow_id=1)  # no socket bound
        send_packets(sim, host, flow, 5)
        sim.run(until=10000.0)
        assert host.stack.unroutable_packets == 5

    def test_rps_moves_processing_off_irq_core(self):
        sim, host = build("host")
        flow = FlowKey.make(1, host.host_ip, PROTO_UDP, flow_id=1)
        host.stack.open_socket(flow, app_cpu=2)
        send_packets(sim, host, flow, 50, interval=0.5)
        sim.run(until=10000.0)
        acct = host.machine.acct
        # Driver work on core 0, protocol work on core 1 (the RPS target).
        assert acct.busy_us_label(0, "skb_alloc") > 0
        assert acct.busy_us_label(1, "l4_rcv") > 0
        assert acct.busy_us_label(0, "l4_rcv") == 0


class TestOverlayPath:
    def test_stage_graph_overlay(self):
        _sim, host = build("overlay")
        assert set(host.stack.stages) == {
            "pnic",
            "hoststack_outer",
            "vxlan",
            "container",
        }

    def test_end_to_end_delivery_and_decap(self):
        sim, host = build("overlay")
        container = host.launch_container("c")
        flow = FlowKey.make(1, container.private_ip, PROTO_UDP, flow_id=1)
        got = []
        host.stack.open_socket(flow, app_cpu=2, on_message=lambda s, skb, lat: got.append(skb))
        send_packets(sim, host, flow, 10)
        sim.run(until=10000.0)
        assert len(got) == 10
        assert all(not skb.encapsulated for skb in got)  # vxlan_rcv stripped it

    def test_vanilla_overlay_serializes_softirqs_on_rps_core(self):
        """The paper's root cause: all three overlay softirq stages of a
        flow stack on the single RPS target core."""
        sim, host = build("overlay")
        container = host.launch_container("c")
        flow = FlowKey.make(1, container.private_ip, PROTO_UDP, flow_id=1)
        host.stack.open_socket(flow, app_cpu=2)
        send_packets(sim, host, flow, 50, interval=0.5)
        sim.run(until=10000.0)
        acct = host.machine.acct
        for label in ("vxlan_rcv", "br_handle_frame", "veth_xmit", "l4_rcv"):
            assert acct.busy_us_label(1, label) > 0, label
            for cpu in (3, 4, 5, 6, 7):
                assert acct.busy_us_label(cpu, label) == 0, (label, cpu)

    def test_overlay_traverses_all_devices(self):
        sim, host = build("overlay")
        container = host.launch_container("c")
        flow = FlowKey.make(1, container.private_ip, PROTO_UDP, flow_id=1)
        seen = []
        host.stack.open_socket(
            flow, app_cpu=2, on_message=lambda s, skb, lat: seen.append(skb.dev_ifindex)
        )
        send_packets(sim, host, flow, 3)
        sim.run(until=10000.0)
        # The last device a packet belonged to is the veth (container side).
        assert seen and all(ifindex == IFINDEX_VETH for ifindex in seen)

    def test_overlay_raises_more_softirqs_than_host(self):
        results = {}
        for mode in ("host", "overlay"):
            sim, host = build(mode)
            if mode == "overlay":
                container = host.launch_container("c")
                flow = FlowKey.make(1, container.private_ip, PROTO_UDP, flow_id=1)
            else:
                flow = FlowKey.make(1, host.host_ip, PROTO_UDP, flow_id=1)
            host.stack.open_socket(flow, app_cpu=2)
            send_packets(sim, host, flow, 100, interval=0.5)
            sim.run(until=10000.0)
            results[mode] = host.stack.softnet.softirq_raises
        ratio = results["overlay"] / results["host"]
        assert 2.0 < ratio < 4.5  # the paper measures 3.6x

    def test_overlay_latency_higher_than_host(self):
        latencies = {}
        for mode in ("host", "overlay"):
            sim, host = build(mode)
            if mode == "overlay":
                container = host.launch_container("c")
                flow = FlowKey.make(1, container.private_ip, PROTO_UDP, flow_id=1)
            else:
                flow = FlowKey.make(1, host.host_ip, PROTO_UDP, flow_id=1)
            samples = []
            host.stack.open_socket(
                flow, app_cpu=2, on_message=lambda s, skb, lat: samples.append(lat)
            )
            send_packets(sim, host, flow, 20, interval=20.0)
            sim.run(until=10000.0)
            latencies[mode] = sum(samples) / len(samples)
        assert latencies["overlay"] > latencies["host"] * 1.3


class TestFalconPath:
    def make_falcon(self, **cfg):
        falcon = FalconConfig(cpus=[3, 4, 5, 6], **cfg)
        sim, host = build("overlay", falcon=falcon)
        container = host.launch_container("c")
        return sim, host, container

    def test_falcon_spreads_stages_across_cores(self):
        sim, host, container = self.make_falcon()
        flow = FlowKey.make(1, container.private_ip, PROTO_UDP, flow_id=1)
        host.stack.open_socket(flow, app_cpu=2)
        send_packets(sim, host, flow, 100, interval=0.5)
        sim.run(until=10000.0)
        acct = host.machine.acct
        vxlan_cores = {
            cpu for cpu in range(8) if acct.busy_us_label(cpu, "br_handle_frame") > 0
        }
        container_cores = {
            cpu for cpu in range(8) if acct.busy_us_label(cpu, "l4_rcv") > 0
        }
        assert vxlan_cores <= {3, 4, 5, 6}
        assert container_cores <= {3, 4, 5, 6}
        # The outer host stack stays on the RPS core (Falcon coexists with RPS).
        assert acct.busy_us_label(1, "vxlan_rcv") > 0

    def test_falcon_preserves_order(self):
        sim, host, container = self.make_falcon()
        flow = FlowKey.make(1, container.private_ip, PROTO_UDP, flow_id=1)
        order = []
        host.stack.open_socket(
            flow, app_cpu=2, on_message=lambda s, skb, lat: order.append(skb.msg_id)
        )
        send_packets(sim, host, flow, 200, interval=0.3)
        sim.run(until=20000.0)
        assert len(order) == 200
        assert order == sorted(order)

    def test_falcon_same_flow_same_stage_core_is_stable(self):
        sim, host, container = self.make_falcon(policy="static")
        flow = FlowKey.make(1, container.private_ip, PROTO_UDP, flow_id=1)
        host.stack.open_socket(flow, app_cpu=2)
        send_packets(sim, host, flow, 60, interval=0.5)
        sim.run(until=10000.0)
        acct = host.machine.acct
        # Static policy: exactly one core carries each overlay stage.
        for label in ("br_handle_frame", "l4_rcv"):
            cores = [
                cpu for cpu in range(8) if acct.busy_us_label(cpu, label) > 0
            ]
            assert len(cores) == 1, label

    def test_gro_split_moves_gro_off_driver_core(self):
        falcon = FalconConfig(cpus=[3, 4, 5, 6], split_gro=True)
        sim, host = build("host", falcon=falcon)
        from repro.kernel.skb import PROTO_TCP

        flow = FlowKey.make(1, host.host_ip, PROTO_TCP, flow_id=1)
        host.stack.open_socket(flow, app_cpu=2)
        for i in range(30):
            skb = Skb(
                flow, size=1460, wire_size=1548, msg_id=i, msg_size=1460,
                seq=i, t_send=0.0,
            )
            sim.schedule(i * 2.0, host.stack.inject, skb)
        sim.run(until=10000.0)
        acct = host.machine.acct
        assert acct.busy_us_label(0, "skb_alloc") > 0
        assert acct.busy_us_label(0, "napi_gro_receive") == 0
        gro_cores = {
            cpu for cpu in range(8) if acct.busy_us_label(cpu, "napi_gro_receive") > 0
        }
        assert gro_cores and gro_cores <= {3, 4, 5, 6}

    def test_split_same_core_workaround(self):
        falcon = FalconConfig(cpus=[3, 4], split_gro=True, split_same_core=True)
        sim, host = build("host", falcon=falcon)
        from repro.kernel.skb import PROTO_TCP

        flow = FlowKey.make(1, host.host_ip, PROTO_TCP, flow_id=1)
        host.stack.open_socket(flow, app_cpu=2)
        for i in range(10):
            skb = Skb(
                flow, size=1460, wire_size=1548, msg_id=i, msg_size=1460,
                seq=i, t_send=0.0,
            )
            sim.schedule(i * 2.0, host.stack.inject, skb)
        sim.run(until=10000.0)
        # The split half never leaves core 0 (Section 6.4 workaround).
        assert host.machine.acct.busy_us_label(0, "napi_gro_receive") > 0

    def test_load_gate_falls_back_to_vanilla(self):
        sim, host, container = self.make_falcon(load_threshold=0.01)
        # Saturate the falcon CPU loads so the gate trips immediately.
        for cpu in (3, 4, 5, 6):
            host.machine.cpus[cpu].load = 1.0
        flow = FlowKey.make(1, container.private_ip, PROTO_UDP, flow_id=1)
        host.stack.open_socket(flow, app_cpu=2)
        send_packets(sim, host, flow, 30, interval=5.0)
        sim.run(until=1000.0)  # short: before the load tracker decays
        acct = host.machine.acct
        # All overlay stages stayed on the RPS core.
        assert acct.busy_us_label(1, "br_handle_frame") > 0
        for cpu in (3, 4, 5, 6):
            assert acct.busy_us_label(cpu, "br_handle_frame") == 0
