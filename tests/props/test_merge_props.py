"""Property-based tests for GRO coalescing and IP defragmentation.

Invariant under test: merging never loses or duplicates bytes, whatever
the fragment count, arrival order (defrag) or flush timing (GRO).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.defrag import DefragEngine
from repro.kernel.gro import GroEngine
from repro.kernel.skb import PROTO_TCP, PROTO_UDP, FlowKey, Skb
from repro.sim.engine import Simulator


def make_message(flow, msg_id, sizes):
    total = sum(sizes)
    return [
        Skb(
            flow,
            size=size,
            msg_id=msg_id,
            msg_size=total,
            frag_index=index,
            frag_count=len(sizes),
        )
        for index, size in enumerate(sizes)
    ]


@given(
    st.lists(
        st.lists(st.integers(1, 1480), min_size=1, max_size=12),
        min_size=1,
        max_size=8,
    ),
    st.data(),
)
def test_defrag_conserves_bytes_any_arrival_order(messages, data):
    sim = Simulator()
    defrag = DefragEngine(sim)
    flow = FlowKey.make(1, 2, PROTO_UDP, flow_id=1)
    all_frags = []
    expected = {}
    for msg_id, sizes in enumerate(messages):
        expected[msg_id] = sum(sizes)
        all_frags.extend(make_message(flow, msg_id, sizes))
    order = data.draw(st.permutations(all_frags))
    emitted = {}
    for frag in order:
        out = defrag.feed(frag)
        if out is not None:
            assert out.msg_id not in emitted, "duplicate emission"
            emitted[out.msg_id] = out.size
    assert emitted == expected
    assert defrag.pending == 0


@given(
    st.lists(st.integers(1, 1448), min_size=1, max_size=16),
    st.data(),
)
def test_gro_conserves_bytes_with_random_flushes(sizes, data):
    """Segments arrive in order (TCP), but a flush may hit at any point;
    the emitted skbs must cover exactly the message bytes, in order."""
    gro = GroEngine()
    flow = FlowKey.make(1, 2, PROTO_TCP, flow_id=1)
    segments = make_message(flow, 0, sizes)
    flush_points = data.draw(
        st.sets(st.integers(0, len(segments) - 1), max_size=len(segments))
    )
    emitted = []
    for index, segment in enumerate(segments):
        out = gro.feed(segment)
        if out is not None:
            emitted.append(out)
        if index in flush_points:
            emitted.extend(gro.flush())
    emitted.extend(gro.flush())
    assert sum(skb.size for skb in emitted) == sum(sizes)
    assert sum(skb.segs for skb in emitted) == len(sizes)
    assert gro.held_count == 0


@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(1, 1448)),
        min_size=2,
        max_size=40,
    )
)
def test_gro_never_merges_across_flows(stream):
    """Interleaved segments from different flows must never co-merge."""
    flows = [FlowKey.make(1, 2, PROTO_TCP, sport=i, flow_id=i + 1) for i in range(4)]
    counters = {}
    segments = []
    for flow_index, size in stream:
        flow = flows[flow_index]
        seq = counters.get(flow_index, 0)
        counters[flow_index] = seq + 1
        segments.append((flow_index, size, seq))
    totals = {index: 0 for index in range(4)}
    gro = GroEngine()
    # Build per-flow messages: every flow's stream is one message.
    for flow_index, size, seq in segments:
        count = counters[flow_index]
        skb = Skb(
            flows[flow_index],
            size=size,
            msg_id=0,
            msg_size=sum(s for f, s, _ in segments if f == flow_index),
            frag_index=seq,
            frag_count=count,
        )
        out = gro.feed(skb)
        if out is not None:
            totals[flow_index] += out.size
    for skb in gro.flush():
        totals[flows.index(skb.flow)] += skb.size
    for flow_index in range(4):
        expected = sum(size for f, size, _ in segments if f == flow_index)
        assert totals[flow_index] == expected
