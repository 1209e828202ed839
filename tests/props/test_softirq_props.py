"""Property tests: one batch enqueue equals a per-packet enqueue loop.

``SoftirqNet.enqueue_backlog`` takes a whole softirq batch, asks the
selector once per run of consecutive same-flow packets (``n`` of them),
and skips the ``raise_net_rx`` call when the target NAPI is already
scheduled on an active softirq chain. :func:`reference_enqueue` is the
plain per-packet ``enqueue_to_backlog`` it replaces: trace record,
``last_cpu``, admission, drop accounting, then always ``raise_net_rx``;
the reference asks the selector once per packet with ``n = 1``. Two
identical softnets, one fed the batches and one fed the loop, must end
in the same state: queues, drops and their reports, raise and interrupt
counts, and the scheduled ``_kick`` events (whose times pin the
IPI-jitter draws). With the real selectors, every counter a selector
keeps must also end equal.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.config import FalconConfig
from repro.core.fairshare import use_fair_share
from repro.core.falcon import FalconSteering
from repro.hw.topology import Machine
from repro.kernel.costs import CostModel
from repro.kernel.skb import FlowKey, Skb
from repro.kernel.softirq import SoftirqNet
from repro.kernel.stages import SocketDeliver, Stage
from repro.kernel.steering import Rfs, Rps
from repro.metrics.counters import NET_RX, RES
from repro.sim.engine import Simulator

NUM_CPUS = 6
NUM_FLOWS = 3


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


#: A few flows; the softnets of one example share them, as two hosts
#: receiving the same traffic would.
FLOWS = [
    FlowKey.make(1, 2, sport=1000 + index, flow_id=index + 1)
    for index in range(NUM_FLOWS)
]


def make_skb(msg_id, flow=0):
    return Skb(FLOWS[flow], size=100, msg_id=msg_id)


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


def runs_of(flows):
    """``(first index, length)`` of each run of equal consecutive flows."""
    runs = []
    for index, flow in enumerate(flows):
        if runs and flows[index - 1] == flow:
            runs[-1][1] += 1
        else:
            runs.append([index, 1])
    return [tuple(run) for run in runs]


cpus = st.integers(min_value=0, max_value=NUM_CPUS - 1)
flow_lists = st.lists(st.integers(0, NUM_FLOWS - 1), min_size=1, max_size=16)


def prefill(softnets, entries):
    """The same earlier enqueues on every softnet: queues, NAPI and
    chain states."""
    for index, (which, target, source) in enumerate(entries):
        for softnet, stages in softnets:
            reference_enqueue(softnet, target, make_skb(-1 - index), stages[which], source)


@given(
    capacity=st.integers(min_value=1, max_value=4),
    earlier=st.lists(st.tuples(st.integers(0, 1), cpus, cpus), max_size=12),
    batches=st.lists(st.tuples(cpus, flow_lists), min_size=1, max_size=3),
    targets=st.dictionaries(
        st.tuples(st.integers(0, NUM_FLOWS - 1), cpus), cpus,
        min_size=NUM_FLOWS * NUM_CPUS, max_size=NUM_FLOWS * NUM_CPUS,
    ),
)
def test_batch_enqueue_matches_per_packet_loop(capacity, earlier, batches, targets):
    """A stub selector with a drawn target per ``(flow, from_cpu)``: the
    batch path asks it once per run, the loop once per packet, and both
    end in the same state."""
    batch, batch_stages = make_softnet(capacity)
    loop, loop_stages = make_softnet(capacity)
    prefill(((batch, batch_stages), (loop, loop_stages)), earlier)

    asked = []

    def selector(skb, current_cpu, n):
        asked.append((skb.msg_id, current_cpu, n))
        return targets[(skb.flow.flow_id - 1, current_cpu)]

    msg_id = 0
    expected_asks = []
    for from_cpu, flows in batches:
        ids = range(msg_id, msg_id + len(flows))
        msg_id += len(flows)
        batch_skbs = [make_skb(i, flow) for i, flow in zip(ids, flows)]
        loop_skbs = [make_skb(i, flow) for i, flow in zip(ids, flows)]
        batch.enqueue_backlog(batch_skbs, batch_stages[0], selector, from_cpu)
        for skb, flow in zip(loop_skbs, flows):
            target = targets[(flow, from_cpu)]
            reference_enqueue(loop, target, skb, loop_stages[0], from_cpu)
        expected_asks += [
            (ids[first], from_cpu, length) for first, length in runs_of(flows)
        ]
        assert [skb.last_cpu for skb in batch_skbs] == [from_cpu] * len(flows)

    assert state(batch) == state(loop)
    assert asked == expected_asks


# ----------------------------------------------------------------------
# The real selectors: Falcon with every balancer, RPS and RFS
# ----------------------------------------------------------------------

FALCON_CPUS = [2, 3, 4, 5]
RPS_CPUS = [1, 2, 3]
KINDS = ("two_choice", "static", "least_loaded", "fair_share", "rps", "rfs")
#: Loads on both sides of the 0.85 threshold (the gate's and a
#: balancer's), so the gate flips and second choices happen.
loads = st.lists(
    st.sampled_from([0.0, 0.3, 0.84, 0.85, 0.9, 1.0]),
    min_size=NUM_CPUS, max_size=NUM_CPUS,
)


def make_selector(kind, machine, tenants):
    """``(selector, counters)`` of one freshly built steering instance."""
    if kind in ("rps", "rfs"):
        if kind == "rps":
            rps = Rps(RPS_CPUS)
            return rps.get_rps_cpu, lambda: {}
        rfs = Rfs(RPS_CPUS)
        for flow, cpu in tenants:
            if cpu is not None:
                rfs.record_consumer(FLOWS[flow].flow_id, cpu)
        return rfs.get_rps_cpu, lambda: {"hits": rfs.hits, "misses": rfs.misses}
    policy = "two_choice" if kind == "fair_share" else kind
    steering = FalconSteering(machine, FalconConfig(cpus=FALCON_CPUS, policy=policy))
    if kind == "fair_share":
        fair = use_fair_share(steering, {"gold": 3, "bronze": 1})
        for flow, cpu in tenants:
            if cpu is not None:
                fair.assign_flow(FLOWS[flow], "gold" if cpu % 2 else "bronze")

    def counters():
        balancer = steering.balancer
        return {
            "steered": steering.steered,
            "fallbacks": steering.fallbacks,
            "steered_by_ifindex": dict(steering.steered_by_ifindex),
            "second_choices": getattr(balancer, "second_choices", None),
            "unassigned_selections": getattr(balancer, "unassigned_selections", None),
        }

    return steering.selector(7), counters


@given(
    kind=st.sampled_from(KINDS),
    capacity=st.integers(min_value=1, max_value=4),
    earlier=st.lists(st.tuples(st.integers(0, 1), cpus, cpus), max_size=8),
    batches=st.lists(st.tuples(cpus, flow_lists, loads), min_size=1, max_size=4),
    tenants=st.lists(
        st.tuples(st.integers(0, NUM_FLOWS - 1), st.none() | cpus), max_size=NUM_FLOWS
    ),
)
def test_selectors_count_a_run_as_its_packets(kind, capacity, earlier, batches, tenants):
    """Each real selector, asked once per run through the batch path,
    picks the targets and keeps the counters that asking once per packet
    does, over interleaved flows and loads redrawn between batches."""
    batch, batch_stages = make_softnet(capacity)
    loop, loop_stages = make_softnet(capacity)
    prefill(((batch, batch_stages), (loop, loop_stages)), earlier)
    batch_selector, batch_counters = make_selector(kind, batch.machine, tenants)
    loop_selector, loop_counters = make_selector(kind, loop.machine, tenants)

    batch_targets = []

    def recording(skb, current_cpu, n):
        target = batch_selector(skb, current_cpu, n)
        batch_targets.extend([target] * n)
        return target

    loop_targets = []
    msg_id = 0
    for from_cpu, flows, cpu_loads in batches:
        for softnet in (batch, loop):
            for cpu, load in zip(softnet.machine.cpus, cpu_loads):
                cpu.load = load
        ids = range(msg_id, msg_id + len(flows))
        msg_id += len(flows)
        batch.enqueue_backlog(
            [make_skb(i, flow) for i, flow in zip(ids, flows)],
            batch_stages[0], recording, from_cpu,
        )
        for i, flow in zip(ids, flows):
            skb = make_skb(i, flow)
            target = loop_selector(skb, from_cpu, 1)
            loop_targets.append(target)
            reference_enqueue(loop, target, skb, loop_stages[0], from_cpu)

    assert batch_targets == loop_targets
    assert batch_counters() == loop_counters()
    assert state(batch) == state(loop)
