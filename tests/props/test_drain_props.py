"""Property tests: the one-step NAPI drain equals a packet-at-a-time poll.

``SoftirqNet._poll_round`` sizes a batch once: a queue that fits the
limit (the smallest of the NAPI weight, the budget left and
``batch_max``) is taken whole and completes, a longer one gives up
``limit`` packets and rotates to the poll list's tail, and the
"drained" fact decides the GRO flush. :func:`reference_poll_round` is
the plain loop it replaces: pop one packet at a time while the queue
has one and the limits allow, then ask the queue whether it still has
work, both to rotate or complete and to flush. Two identical softnets,
one polled each way, must take the same batches in the same order, at
the same times, with the same poll-list order, ``scheduled`` flags, NIC
``napi_scheduled`` re-arm and flushes, and end in the same state.
"""

import types

from hypothesis import given
from hypothesis import strategies as st

from repro.hw.nic import Nic
from repro.hw.topology import Machine
from repro.kernel.costs import CostModel
from repro.kernel.skb import FlowKey, Skb
from repro.kernel.softirq import BacklogNapi, DriverNapi, SoftirqNet
from repro.kernel.stages import Stage, Step, Transition
from repro.metrics.counters import NET_RX
from repro.sim.engine import Simulator

FLOW = FlowKey.make(1, 2, sport=1000, flow_id=1)


class Drop(Transition):
    def route(self, skbs, cpu_index, stack):
        pass


class RecordingStage(Stage):
    """A stage that logs each batch it runs with the poll state it sees."""

    def __init__(self, name, log, view):
        super().__init__(name, 2, [Step("fn", lambda skb: 0.5)], Drop(), self._flush)
        self.log = log
        self.view = view

    def run_batch(self, skbs, cpu_index, *rest):
        self.log.append(("batch", self.name, [skb.seq for skb in skbs], self.view()))
        super().run_batch(skbs, cpu_index, *rest)

    def _flush(self, cpu_index):
        self.log.append(("flush", self.name))
        return []


def reference_poll_round(self, cpu_index, budget_left):
    """``_poll_round`` one ``popleft`` at a time, asking the queue again
    for rotate-or-complete and for the flush."""
    data = self.data[cpu_index]
    while True:
        if not data.poll_list:
            data.net_rx_active = False
            return
        if budget_left <= 0:
            self.machine.interrupts.record(NET_RX, cpu_index)
            self.softirq_raises += 1
            self._kick(cpu_index)
            return
        napi = data.poll_list.popleft()
        skbs = []
        while (
            napi.queue
            and len(skbs) < napi.weight
            and len(skbs) < budget_left
            and len(skbs) < self.batch_max
        ):
            skbs.append(napi.queue.popleft())
        if napi.queue:
            data.poll_list.append(napi)
        else:
            napi.scheduled = False
            if napi.rx_queue is not None:
                napi.rx_queue.napi_scheduled = False
        if not skbs:
            continue
        # The GRO flush follows the batch exactly when the queue is dry.
        self.expected_flushes.append(not napi.queue)
        self._run_batch(
            self.machine.cpus[cpu_index],
            cpu_index,
            napi,
            skbs,
            budget_left - len(skbs),
            not napi.queue,
        )
        return


def build(spec, budget, batch_max):
    """A one-core softnet whose poll list holds the drawn NAPIs.

    ``spec`` is ``(kind, queue length, weight)`` per NAPI, in poll-list
    order; each NAPI serves its own recording stage.
    """
    sim = Simulator()
    machine = Machine(sim, num_cpus=1)
    softnet = SoftirqNet(
        machine, CostModel(), stack=None, budget=budget, batch_max=batch_max
    )
    data = softnet.data[0]
    log = []
    napis = []
    nic = Nic(num_queues=len(spec), irq_cpus=[0] * len(spec))

    def view():
        return (
            [napi.label for napi in data.poll_list],
            [napi.scheduled for napi in napis],
            [queue.napi_scheduled for queue in nic.queues],
        )

    for index, (kind, length, weight) in enumerate(spec):
        stage = RecordingStage(f"s{index}", log, view)
        if kind == "driver":
            rx_queue = nic.queues[index]
            rx_queue.napi_scheduled = True
            napi = DriverNapi(rx_queue, stage, weight=weight)
        else:
            napi = BacklogNapi(stage, weight=weight)
            data.queues[stage.name] = napi
        napi.label = f"{kind}{index}"
        napi.queue.extend(Skb(FLOW, size=64, seq=seq) for seq in range(length))
        napi.scheduled = True
        data.poll_list.append(napi)
        napis.append(napi)
    data.net_rx_active = True
    return softnet, log, view


def end_state(softnet, view):
    data = softnet.data[0]
    return (
        softnet.machine.sim.now,
        softnet.softirq_raises,
        softnet.handler_runs,
        softnet.machine.interrupts.on_cpu(NET_RX, 0),
        dict(softnet.stage_executions),
        data.net_rx_active,
        view(),
        softnet.machine.acct.busy_us(0),
    )


def flushes(log):
    """Per batch in ``log``: whether a flush of its stage follows it."""
    return [
        index + 1 < len(log) and log[index + 1] == ("flush", entry[1])
        for index, entry in enumerate(log)
        if entry[0] == "batch"
    ]


napi_specs = st.lists(
    st.tuples(
        st.sampled_from(["backlog", "driver"]),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=1, max_value=20),
    ),
    min_size=1,
    max_size=4,
)


@given(
    spec=napi_specs,
    budget=st.integers(min_value=1, max_value=60),
    batch_max=st.integers(min_value=1, max_value=20),
)
def test_drain_matches_packet_at_a_time_poll(spec, budget, batch_max):
    fast, fast_log, fast_view = build(spec, budget, batch_max)
    ref, ref_log, ref_view = build(spec, budget, batch_max)
    ref._poll_round = types.MethodType(reference_poll_round, ref)
    ref.expected_flushes = []
    fast._poll_round(0, budget)
    ref._poll_round(0, budget)
    fast.machine.sim.run()
    ref.machine.sim.run()
    assert fast_log == ref_log
    assert flushes(fast_log) == ref.expected_flushes
    assert end_state(fast, fast_view) == end_state(ref, ref_view)
    # Every packet was polled, and every NAPI completed.
    assert sum(fast.stage_executions.values()) == sum(length for _k, length, _w in spec)
    assert fast_view() == ([], [False] * len(spec), [False] * len(spec))
