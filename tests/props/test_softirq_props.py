"""Property test: one batch enqueue equals a per-packet enqueue loop.

``SoftirqNet.enqueue_backlog`` takes a whole softirq batch and skips the
``raise_net_rx`` call when the target NAPI is already scheduled on an
active softirq chain. :func:`reference_enqueue` is the plain per-packet
``enqueue_to_backlog`` it replaces: trace record, ``last_cpu``,
admission, drop accounting, then always ``raise_net_rx``. Two identical
softnets, one fed the batch and one fed the loop, must end in the same
state: queues, drops and their reports, raise and interrupt counts, and
the scheduled ``_kick`` events (whose times pin the IPI-jitter draws).
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.hw.topology import Machine
from repro.kernel.costs import CostModel
from repro.kernel.skb import FlowKey, Skb
from repro.kernel.softirq import SoftirqNet
from repro.kernel.stages import SocketDeliver, Stage
from repro.metrics.counters import NET_RX, RES
from repro.sim.engine import Simulator

NUM_CPUS = 4


class Recorder:
    """Stands in for the flow cache and the monitor: logs drop reports."""

    def __init__(self):
        self.calls = []

    def packet_terminated(self, skb):
        self.calls.append(("terminated", skb.msg_id))

    def on_terminal(self, skb, reason):
        self.calls.append((reason, skb.msg_id))


def make_softnet(capacity):
    sim = Simulator()
    machine = Machine(sim, num_cpus=NUM_CPUS)
    softnet = SoftirqNet(machine, CostModel(), stack=None, backlog_capacity=capacity)
    softnet.flowcache = Recorder()
    softnet.monitor = Recorder()
    stages = [Stage(name, 2, [], SocketDeliver()) for name in ("a", "b")]
    return softnet, stages


def reference_enqueue(softnet, target_cpu, skb, stage, from_cpu):
    """The per-packet ``enqueue_to_backlog``: always calls raise_net_rx."""
    data = softnet.data[target_cpu]
    skb.last_cpu = from_cpu
    napi = data.queue_for(stage)
    if from_cpu != target_cpu and len(napi.queue) >= napi.capacity:
        napi.drops += 1
        softnet.flowcache.packet_terminated(skb)
        softnet.monitor.on_terminal(skb, "backlog_drop")
        return
    napi.queue.append(skb)
    softnet.raise_net_rx(target_cpu, napi, from_cpu)


def make_skb(msg_id):
    return Skb(FlowKey.make(1, 2, flow_id=1), size=100, msg_id=msg_id)


def state(softnet):
    machine = softnet.machine
    return {
        "queues": [
            {name: [skb.msg_id for skb in napi.queue] for name, napi in data.queues.items()}
            for data in softnet.data
        ],
        "drops": [
            {name: napi.drops for name, napi in data.queues.items()}
            for data in softnet.data
        ],
        "flags": [
            (data.net_rx_active, [napi.label for napi in data.poll_list])
            for data in softnet.data
        ],
        "reports": softnet.flowcache.calls + softnet.monitor.calls,
        "raises": softnet.softirq_raises,
        "net_rx": [machine.interrupts.on_cpu(NET_RX, cpu) for cpu in range(NUM_CPUS)],
        "res": [machine.interrupts.on_cpu(RES, cpu) for cpu in range(NUM_CPUS)],
        "events": [
            (time, seq, fn.__name__, args)
            for time, seq, fn, args in sorted(machine.sim._heap)
        ],
    }


cpus = st.integers(min_value=0, max_value=NUM_CPUS - 1)


@given(
    capacity=st.integers(min_value=1, max_value=4),
    prefill=st.lists(st.tuples(st.integers(0, 1), cpus, cpus), max_size=12),
    targets=st.lists(cpus, min_size=1, max_size=16),
    from_cpu=cpus,
)
def test_batch_enqueue_matches_per_packet_loop(capacity, prefill, targets, from_cpu):
    batch, batch_stages = make_softnet(capacity)
    loop, loop_stages = make_softnet(capacity)
    # The same earlier enqueues on both: queues, NAPI and chain states.
    for index, (which, target, source) in enumerate(prefill):
        for softnet, stages in ((batch, batch_stages), (loop, loop_stages)):
            reference_enqueue(softnet, target, make_skb(-1 - index), stages[which], source)

    batch_skbs = [make_skb(index) for index in range(len(targets))]
    loop_skbs = [make_skb(index) for index in range(len(targets))]
    chosen = iter(targets)
    asked = []

    def selector(skb, current_cpu):
        asked.append((skb.msg_id, current_cpu))
        return next(chosen)

    batch.enqueue_backlog(batch_skbs, batch_stages[0], selector, from_cpu)
    for skb, target in zip(loop_skbs, targets):
        reference_enqueue(loop, target, skb, loop_stages[0], from_cpu)

    assert state(batch) == state(loop)
    assert asked == [(index, from_cpu) for index in range(len(targets))]
    assert [skb.last_cpu for skb in batch_skbs] == [from_cpu] * len(targets)
