"""Unit tests for the device-stage step builders and protocol steps."""

import pytest

from repro.kernel.costs import VXLAN_OVERHEAD, CostModel
from repro.kernel.defrag import DefragEngine
from repro.kernel.devices.base import ALL_DEVICES, VETH
from repro.kernel.devices.bridge import bridge_step
from repro.kernel.devices.physical import (
    driver_first_half_steps,
    driver_second_half_steps,
    driver_steps,
    gro_step,
)
from repro.kernel.devices.veth import veth_steps
from repro.kernel.devices.vxlan import outer_stack_steps
from repro.kernel.gro import GroCluster
from repro.kernel.protocol import defrag_step, l4_rcv_step, stack_tail_steps
from repro.kernel.skb import PROTO_TCP, PROTO_UDP, FlowKey, Skb
from repro.sim.engine import Simulator


def udp_skb(size=1000, frag_count=1, frag_index=0):
    return Skb(
        FlowKey.make(1, 2, PROTO_UDP, flow_id=1), size=size,
        frag_count=frag_count, frag_index=frag_index,
    )


def tcp_skb(size=1000, frag_count=1, frag_index=0):
    return Skb(
        FlowKey.make(1, 2, PROTO_TCP, flow_id=1), size=size,
        frag_count=frag_count, frag_index=frag_index,
    )


class TestDeviceRegistry:
    def test_ifindexes_distinct(self):
        indexes = [device.ifindex for device in ALL_DEVICES]
        assert len(set(indexes)) == len(indexes)

    def test_veth_is_not_napi(self):
        assert not VETH.napi  # why it uses process_backlog (Section 3.1)


class TestDriverSteps:
    def test_full_stage_step_names(self):
        steps = driver_steps(CostModel(), GroCluster(2))
        assert [step.name for step in steps] == [
            "skb_alloc", "napi_gro_receive", "rps_steer",
        ]

    def test_split_halves_partition_the_work(self):
        costs = CostModel()
        first = driver_first_half_steps(costs)
        second = driver_second_half_steps(costs, GroCluster(2))
        assert "skb_alloc" in [s.name for s in first]
        assert "napi_gro_receive" in [s.name for s in second]
        # GRO never appears in the first half.
        assert "napi_gro_receive" not in [s.name for s in first]

    def test_gro_cost_tcp_vs_udp(self):
        costs = CostModel()
        step = gro_step(costs, GroCluster(2))
        tcp_cost = step.cost(tcp_skb(size=1448))
        udp_cost = step.cost(udp_skb(size=1448))
        assert tcp_cost > 3 * udp_cost  # merge work vs quick look

    def test_gro_disabled_costs_check_only(self):
        costs = CostModel()
        step = gro_step(costs, None)
        assert step.cost(tcp_skb(size=1448)) == pytest.approx(
            costs.gro_check.cost(1448)
        )
        assert step.effect is None


class TestOverlaySteps:
    def test_outer_stack_decapsulates(self):
        steps = outer_stack_steps(CostModel())
        vxlan = next(step for step in steps if step.name == "vxlan_rcv")
        skb = udp_skb(size=1000)
        skb.encapsulated = True
        out = vxlan.effect(skb, 0)
        assert out is skb
        assert skb.size == 1000 - VXLAN_OVERHEAD
        assert not skb.encapsulated

    def test_bridge_and_veth_cost_scale_with_size(self):
        costs = CostModel()
        assert bridge_step(costs).cost(udp_skb(size=9000)) > bridge_step(
            costs
        ).cost(udp_skb(size=100))
        veth = veth_steps(costs)
        assert [s.name for s in veth] == ["veth_xmit", "netif_rx"]


class TestProtocolSteps:
    def test_l4_cost_selects_protocol(self):
        costs = CostModel()
        step = l4_rcv_step(costs)
        tcp_cost = step.cost(tcp_skb(size=4096))
        udp_cost = step.cost(udp_skb(size=4096))
        expected_tcp = costs.tcp_v4_rcv.cost(4096) + costs.tcp_ack_tx.fixed
        assert tcp_cost == pytest.approx(expected_tcp)
        assert udp_cost == pytest.approx(costs.udp_rcv.cost(4096))

    def test_defrag_step_ignores_tcp(self):
        sim = Simulator()
        engine = DefragEngine(sim)
        step = defrag_step(CostModel(), engine)
        segment = tcp_skb(frag_count=3, frag_index=0)
        assert step.cost(segment) == 0.0
        assert step.effect(segment, 0) is segment
        assert engine.pending == 0

    def test_defrag_step_holds_udp_fragments(self):
        sim = Simulator()
        engine = DefragEngine(sim)
        step = defrag_step(CostModel(), engine)
        frag = udp_skb(frag_count=3, frag_index=0)
        assert step.cost(frag) > 0
        assert step.effect(frag, 0) is None
        assert engine.pending == 1

    def test_tail_has_socket_enqueue_last(self):
        sim = Simulator()
        steps = stack_tail_steps(CostModel(), DefragEngine(sim))
        assert steps[-1].name == "sock_enqueue"
        assert steps[0].name == "ip_rcv"
