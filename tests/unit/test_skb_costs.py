"""Unit tests for sk_buff model and the cost model."""

import pytest

from repro.kernel.costs import (
    MTU,
    VXLAN_OVERHEAD,
    CostModel,
    FuncCost,
    fragment_sizes,
    tcp_mss,
    udp_payload_per_fragment,
)
from repro.kernel.skb import PROTO_TCP, PROTO_UDP, FlowKey, Skb
from repro.sim.context import SimContext


class TestFlowKey:
    def test_same_tuple_same_hash(self):
        a = FlowKey.make(1, 2, PROTO_UDP, 1000, 5001, flow_id=1)
        b = FlowKey.make(1, 2, PROTO_UDP, 1000, 5001, flow_id=2)
        assert a.hash == b.hash

    def test_flow_ids_unique(self):
        ctx = SimContext()
        ids = [ctx.new_flow_id() for _ in range(3)]
        assert ids == [1, 2, 3]
        assert FlowKey.make(1, 2, flow_id=ids[0]).flow_id == 1

    def test_tuple_roundtrip(self):
        flow = FlowKey(1, 2, PROTO_TCP, 3, 4, 1)
        assert flow.tuple() == (1, 2, PROTO_TCP, 3, 4)


class TestSkb:
    def test_defaults(self):
        skb = Skb(FlowKey.make(1, 2, flow_id=1), size=100)
        assert skb.wire_size == 100
        assert skb.msg_size == 100
        assert skb.segs == 1
        assert not skb.is_fragment
        assert skb.last_cpu is None

    def test_decapsulate_strips_overhead(self):
        skb = Skb(FlowKey.make(1, 2, flow_id=1), size=1000, encapsulated=True)
        skb.decapsulate(VXLAN_OVERHEAD)
        assert skb.size == 950
        assert not skb.encapsulated

    def test_fragment_flags(self):
        skb = Skb(FlowKey.make(1, 2, flow_id=1), size=100, frag_index=2, frag_count=3)
        assert skb.is_fragment
        assert skb.is_last_fragment

    def test_is_tcp(self):
        assert Skb(FlowKey.make(1, 2, PROTO_TCP, flow_id=1), size=1).is_tcp
        assert not Skb(FlowKey.make(1, 2, PROTO_UDP, flow_id=1), size=1).is_tcp


class TestFuncCost:
    def test_linear_cost(self):
        cost = FuncCost(1.0, 0.001)
        assert cost.cost(1000) == pytest.approx(2.0)

    @pytest.mark.parametrize("fixed, per_byte", [(-0.1, 0.0), (0.3, -0.00001)])
    def test_negative_terms_rejected(self, fixed, per_byte):
        with pytest.raises(ValueError, match="must be >= 0"):
            FuncCost(fixed, per_byte)

    def test_zero_cost_allowed(self):
        assert FuncCost(0.0).cost(1500) == 0.0


class TestCostModel:
    def test_kernel_presets_differ(self):
        k419 = CostModel.kernel_4_19()
        k54 = CostModel.kernel_5_4()
        assert k54.skb_alloc.fixed < k419.skb_alloc.fixed  # 5.4 improvement
        assert k54.backlog_dequeue.fixed > k419.backlog_dequeue.fixed  # regression
        assert k419.name == "4.19"
        assert k54.name == "5.4"

    def test_for_kernel_rejects_unknown(self):
        with pytest.raises(ValueError):
            CostModel.for_kernel("6.1")

    def test_tx_overlay_more_expensive(self):
        costs = CostModel()
        assert costs.tx_cost_us(100, overlay=True) > costs.tx_cost_us(
            100, overlay=False
        )


class TestFragmentation:
    def test_small_message_single_packet(self):
        assert fragment_sizes(16, overlay=False, tcp=False) == (16,)
        assert fragment_sizes(16, overlay=True, tcp=True) == (16,)

    def test_overlay_reduces_payload_per_fragment(self):
        assert udp_payload_per_fragment(True) == udp_payload_per_fragment(
            False
        ) - VXLAN_OVERHEAD
        assert tcp_mss(True) == tcp_mss(False) - VXLAN_OVERHEAD

    def test_fragments_cover_message(self):
        for overlay in (False, True):
            for tcp in (False, True):
                for size in (1, 1000, 1473, 4096, 65507):
                    sizes = fragment_sizes(size, overlay, tcp)
                    assert sum(sizes) == size
                    unit = tcp_mss(overlay) if tcp else udp_payload_per_fragment(overlay)
                    assert all(0 < s <= unit for s in sizes)

    def test_mtu_bound(self):
        # Every fragment plus headers plus encap must fit the wire MTU.
        for overlay in (False, True):
            unit = udp_payload_per_fragment(overlay)
            wire = unit + 28 + (VXLAN_OVERHEAD if overlay else 0)
            assert wire <= MTU

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            fragment_sizes(0, False, False)

    def test_64k_udp_fragment_count(self):
        host_frags = len(fragment_sizes(65507, overlay=False, tcp=False))
        overlay_frags = len(fragment_sizes(65507, overlay=True, tcp=False))
        assert host_frags == 45
        assert overlay_frags >= host_frags  # smaller inner MTU, more frags
