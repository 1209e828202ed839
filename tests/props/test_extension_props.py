"""Property tests for the extension modules (fair share, TX path)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fairshare import partition_cpus
from repro.hw.link import Link
from repro.hw.topology import Machine
from repro.kernel.costs import CostModel, fragment_sizes
from repro.kernel.skb import PROTO_TCP, PROTO_UDP, FlowKey
from repro.kernel.tx import TxStack
from repro.sim.engine import Simulator

tenant_names = st.lists(
    st.text(alphabet="abcdefgh", min_size=1, max_size=4),
    min_size=1,
    max_size=6,
    unique=True,
)


@settings(max_examples=200)
@given(
    names=tenant_names,
    weights_seed=st.data(),
    num_cpus=st.integers(min_value=1, max_value=32),
)
def test_partition_covers_disjoint_and_weight_ordered(names, weights_seed, num_cpus):
    if num_cpus < len(names):
        return  # rejected by validation; covered in unit tests
    weights = {
        name: weights_seed.draw(
            st.floats(min_value=0.1, max_value=100.0), label=name
        )
        for name in names
    }
    cpus = list(range(100, 100 + num_cpus))
    partitions = partition_cpus(cpus, weights)
    flat = [cpu for part in partitions.values() for cpu in part]
    # Cover exactly, no overlap.
    assert sorted(flat) == cpus
    # Everyone got at least one CPU.
    assert all(len(part) >= 1 for part in partitions.values())
    # Allocation respects weight ordering up to the ±1 CPU granularity of
    # largest-remainder rounding.
    for a in names:
        for b in names:
            if weights[a] >= 2 * weights[b]:
                assert len(partitions[a]) + 1 >= len(partitions[b])


@settings(max_examples=50, deadline=None)
@given(
    message_size=st.integers(min_value=1, max_value=65507),
    proto=st.sampled_from([PROTO_UDP, PROTO_TCP]),
    overlay=st.booleans(),
)
def test_tx_emits_exactly_the_fragments(message_size, proto, overlay):
    sim = Simulator()
    machine = Machine(sim, num_cpus=2)
    link = Link(sim, 100.0, propagation_us=0.5)
    tx = TxStack(machine, link, CostModel(), overlay=overlay)
    flow = FlowKey.make(1, 2, proto, flow_id=1)
    frames = []
    tx.send_message(flow, message_size, app_cpu=0, deliver=frames.append)
    sim.run()
    expected = fragment_sizes(message_size, overlay, tcp=proto == PROTO_TCP)
    assert len(frames) == len(expected)
    assert [f.frag_index for f in frames] == list(range(len(expected)))
    assert all(f.msg_size == message_size for f in frames)
    assert all(f.encapsulated == overlay for f in frames)
    # Wire sequence strictly increasing.
    seqs = [f.seq for f in frames]
    assert seqs == sorted(set(seqs))
