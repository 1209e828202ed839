"""Unit tests for GRO coalescing and IP defragmentation."""

from repro.kernel.defrag import DefragEngine
from repro.kernel.gro import GroCluster, GroEngine
from repro.kernel.skb import PROTO_TCP, PROTO_UDP, FlowKey, Skb
from repro.sim.engine import Simulator


def make_segments(flow, msg_id, count, size=1000, msg_size=None):
    return [
        Skb(
            flow,
            size=size,
            msg_id=msg_id,
            msg_size=msg_size or size * count,
            frag_index=index,
            frag_count=count,
            seq=index,
        )
        for index in range(count)
    ]


class TestGro:
    def test_udp_passes_through(self):
        gro = GroEngine()
        skb = Skb(FlowKey.make(1, 2, PROTO_UDP, flow_id=1), size=100)
        assert gro.feed(skb) is skb

    def test_single_segment_tcp_passes_through(self):
        gro = GroEngine()
        skb = Skb(FlowKey.make(1, 2, PROTO_TCP, flow_id=1), size=100)
        assert gro.feed(skb) is skb

    def test_merges_full_message(self):
        flow = FlowKey.make(1, 2, PROTO_TCP, flow_id=1)
        gro = GroEngine()
        segs = make_segments(flow, msg_id=0, count=3)
        assert gro.feed(segs[0]) is None
        assert gro.feed(segs[1]) is None
        merged = gro.feed(segs[2])
        assert merged is segs[0]
        assert merged.size == 3000
        assert merged.segs == 3
        assert merged.frag_count == 1  # now a complete message
        assert gro.held_count == 0

    def test_flush_releases_partials(self):
        flow = FlowKey.make(1, 2, PROTO_TCP, flow_id=1)
        gro = GroEngine()
        segs = make_segments(flow, msg_id=0, count=3)
        gro.feed(segs[0])
        gro.feed(segs[1])
        released = gro.flush()
        assert len(released) == 1
        assert released[0].size == 2000
        assert gro.held_count == 0

    def test_interleaved_flows_do_not_merge(self):
        flow_a = FlowKey.make(1, 2, PROTO_TCP, sport=1, flow_id=1)
        flow_b = FlowKey.make(1, 2, PROTO_TCP, sport=2, flow_id=2)
        gro = GroEngine()
        a = make_segments(flow_a, 0, 2)
        b = make_segments(flow_b, 0, 2)
        assert gro.feed(a[0]) is None
        assert gro.feed(b[0]) is None
        merged_a = gro.feed(a[1])
        merged_b = gro.feed(b[1])
        assert merged_a.flow is flow_a
        assert merged_b.flow is flow_b
        assert merged_a.size == merged_b.size == 2000

    def test_cluster_is_per_cpu(self):
        flow = FlowKey.make(1, 2, PROTO_TCP, flow_id=1)
        cluster = GroCluster(num_cpus=2)
        segs = make_segments(flow, 0, 2)
        assert cluster.feed(segs[0], 0) is None
        # A different CPU's engine knows nothing about the held segment.
        assert cluster.engines[1].held_count == 0
        assert cluster.feed(segs[1], 0) is not None
        assert cluster.merged_packets == 1


class TestDefrag:
    def test_unfragmented_passes_through(self):
        sim = Simulator()
        defrag = DefragEngine(sim)
        skb = Skb(FlowKey.make(1, 2, flow_id=1), size=100)
        assert defrag.feed(skb) is skb

    def test_reassembles_in_order(self):
        sim = Simulator()
        defrag = DefragEngine(sim)
        flow = FlowKey.make(1, 2, flow_id=1)
        frags = make_segments(flow, msg_id=7, count=4, size=1400)
        results = [defrag.feed(f) for f in frags]
        assert results[:3] == [None, None, None]
        datagram = results[3]
        assert datagram.size == 5600
        assert datagram.segs == 4
        assert datagram.frag_count == 1
        assert defrag.reassembled == 1
        assert defrag.pending == 0

    def test_reassembles_out_of_order(self):
        sim = Simulator()
        defrag = DefragEngine(sim)
        flow = FlowKey.make(1, 2, flow_id=1)
        frags = make_segments(flow, msg_id=1, count=3)
        assert defrag.feed(frags[2]) is None
        assert defrag.feed(frags[0]) is None
        assert defrag.feed(frags[1]) is not None

    def test_incomplete_message_times_out(self):
        sim = Simulator()
        defrag = DefragEngine(sim, timeout_us=100.0)
        flow = FlowKey.make(1, 2, flow_id=1)
        frags = make_segments(flow, msg_id=0, count=3)
        defrag.feed(frags[0])  # rest never arrive
        assert defrag.pending == 1
        sim.run(until=500.0)
        assert defrag.pending == 0
        assert defrag.defrag_timeouts == 1

    def test_concurrent_messages_kept_separate(self):
        sim = Simulator()
        defrag = DefragEngine(sim)
        flow = FlowKey.make(1, 2, flow_id=1)
        a = make_segments(flow, msg_id=0, count=2)
        b = make_segments(flow, msg_id=1, count=2)
        assert defrag.feed(a[0]) is None
        assert defrag.feed(b[0]) is None
        assert defrag.feed(b[1]).msg_id == 1
        assert defrag.feed(a[1]).msg_id == 0
