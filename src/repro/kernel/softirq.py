"""Softirq scheduling and NAPI polling.

This module implements the machinery Section 2.1 of the paper describes:

* ``raise_net_rx`` — raising the ``NET_RX_SOFTIRQ`` on a core. If the
  target core differs from the raising core, a rescheduling IPI (``RES``)
  is sent, with its latency modelled — the paper attributes Falcon's
  residual tail latency to exactly these IPIs (Section 6.1).
* ``net_rx_action`` — the softirq handler: iterates the core's poll list,
  polling each NAPI instance up to its weight within an overall budget,
  re-raising itself when the budget runs out (ksoftirqd behaviour).
* per-CPU backlog queues (``input_pkt_queue`` + ``process_backlog``) that
  stage-transition functions (``netif_rx`` / ``enqueue_to_backlog``)
  target — the mechanism Falcon re-purposes for pipelining.

Interrupt accounting matches Figure 4's categories: one ``NET_RX`` count
per softirq raise, one ``RES`` per cross-core wakeup IPI, one ``hardirq``
per NIC interrupt.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence

from repro.hw.cpu import SOFTIRQ
from repro.hw.nic import Nic, RxQueue
from repro.hw.topology import Machine
from repro.kernel.costs import CostModel
from repro.kernel.skb import Skb
from repro.kernel.stages import Selector, Stage
from repro.metrics.counters import HARDIRQ as IRQ_HARD
from repro.metrics.counters import NET_RX, RES

class Napi:
    """Base NAPI instance: a pollable packet queue feeding one stage.

    Every packet a NAPI instance yields is processed by ``stage``, so its
    ``queue`` holds bare skbs. ``net_rx_action`` polls the queue directly
    (see :meth:`SoftirqNet._poll_round`); ``rx_queue`` is the NIC receive
    queue whose interrupt is re-enabled once the queue is polled dry, or
    None for a backlog.
    """

    __slots__ = ("label", "weight", "scheduled", "stage", "queue", "rx_queue")

    def __init__(
        self,
        label: str,
        stage: Stage,
        weight: int,
        queue: Deque[Skb],
        rx_queue: Optional[RxQueue] = None,
    ) -> None:
        if weight < 1:
            raise ValueError(f"NAPI weight must be >= 1, got {weight}")
        self.label = label
        self.weight = weight
        self.stage = stage
        self.queue = queue
        self.rx_queue = rx_queue
        #: True while on some core's poll list.
        self.scheduled = False


class DriverNapi(Napi):
    """NAPI instance of one physical-NIC receive queue: polls its ring."""

    __slots__ = ()

    def __init__(self, rx_queue: RxQueue, stage: Stage, weight: int = 64) -> None:
        super().__init__("mlx5e_napi_poll", stage, weight, rx_queue.ring, rx_queue)


class BacklogNapi(Napi):
    """One stage's per-CPU backlog (``input_pkt_queue`` + ``process_backlog``)."""

    __slots__ = ("capacity", "drops")

    def __init__(self, stage: Stage, capacity: int = 1000, weight: int = 64) -> None:
        super().__init__(f"process_backlog[{stage.name}]", stage, weight, deque())
        self.capacity = capacity
        self.drops = 0


class SoftNetData:
    """Per-CPU softirq state (the kernel's ``softnet_data``).

    Each processing stage gets its own per-CPU queue, mirroring the
    kernel: the RPS/driver injections land in the backlog proper
    (``input_pkt_queue``), the VXLAN device owns a per-CPU gro_cell
    queue, veth re-injections are spliced locally, etc. ``net_rx_action``
    round-robins between them, so re-injected mid-pipeline packets are
    not starved behind the fresh-arrival firehose.
    """

    __slots__ = (
        "poll_list",
        "queues",
        "net_rx_active",
        "capacity",
        "weight",
        "last_stage",
    )

    def __init__(self, backlog_capacity: int, weight: int) -> None:
        self.poll_list: Deque[Napi] = deque()
        self.queues: Dict[str, BacklogNapi] = {}
        self.capacity = backlog_capacity
        self.weight = weight
        #: True while a net_rx_action chain is scheduled or running.
        self.net_rx_active = False
        #: Name of the stage the core last processed (context-switch cost).
        self.last_stage: str = ""

    def queue_for(self, stage: Stage) -> BacklogNapi:
        napi = self.queues.get(stage.name)
        if napi is None:
            napi = BacklogNapi(stage, capacity=self.capacity, weight=self.weight)
            self.queues[stage.name] = napi
        return napi


class SoftirqNet:
    """The machine-wide softirq subsystem for packet reception."""

    def __init__(
        self,
        machine: Machine,
        costs: CostModel,
        stack: "object",
        budget: int = 300,
        napi_weight: int = 64,
        batch_max: int = 16,
        backlog_capacity: int = 1000,
    ) -> None:
        if budget < 1 or batch_max < 1:
            raise ValueError(
                f"budget and batch_max must be >= 1, got {budget} and {batch_max}"
            )
        self.machine = machine
        #: The run's :class:`~repro.sim.context.SimContext` — the softirq
        #: subsystem draws its RNG stream and tracer from here, never from
        #: process-global state.
        self.ctx = machine.ctx
        self.costs = costs
        #: The NetworkStack (routing port for stage exits).
        self.stack = stack
        self.budget = budget
        self.batch_max = batch_max
        self.data = [
            SoftNetData(backlog_capacity, napi_weight)
            for _ in range(machine.num_cpus)
        ]
        self._ipi_rng = self.ctx.stream("ipi-jitter")
        #: Optional :class:`repro.validate.InvariantMonitor` hook.
        self.monitor: Optional[Any] = None
        #: The stack's :class:`repro.kernel.flowcache.FlowCache` (or None);
        #: backlog drops must settle the cache's slow-in-flight ledger.
        self.flowcache: Optional[Any] = None
        #: Calls to raise_net_rx (per-packet granularity in the overlay).
        self.softirq_raises = 0
        #: net_rx_action invocations — how often a softirq handler actually
        #: started on some core. Falcon's pipelining wakes more handler
        #: instances (one per stage core) than the vanilla overlay's single
        #: serialized chain.
        self.handler_runs = 0
        #: Packets processed per stage name — the paper's "softirqs per
        #: packet" view (one device softirq execution per packet per stage).
        self.stage_executions: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Hardware interrupt entry
    # ------------------------------------------------------------------
    def attach_nic(self, nic: Nic, driver_stage: Stage, napi_weight: int = 64) -> None:
        """Install this subsystem as the NIC's IRQ handler."""
        napis = {
            queue.index: DriverNapi(queue, driver_stage, weight=napi_weight)
            for queue in nic.queues
        }

        def irq_handler(queue: RxQueue) -> None:
            cpu_index = queue.irq_cpu
            self.machine.interrupts.record(IRQ_HARD, cpu_index)
            cpu = self.machine.cpus[cpu_index]
            napi = napis[queue.index]
            cpu.submit(
                0,  # HARDIRQ context
                "pnic_interrupt",
                self.costs.hardirq.fixed,
                self.raise_net_rx,
                cpu_index,
                napi,
                cpu_index,
            )

        nic.irq_handler = irq_handler

    # ------------------------------------------------------------------
    # Softirq raising (the stage-transition target)
    # ------------------------------------------------------------------
    def raise_net_rx(self, cpu_index: int, napi: Napi, from_cpu: int) -> None:
        """Schedule ``napi`` for polling on ``cpu_index``.

        NET_RX accounting follows the kernel's: ``____napi_schedule``
        raises (and counts) the softirq only when the NAPI instance was
        not already on a poll list, so back-to-back packets coalesce. If
        the raiser is a different core and the target's softirq chain is
        idle, a RES IPI (with latency) wakes it.
        """
        data = self.data[cpu_index]
        # Demand-side counter: one per raise call (per packet per device).
        self.softirq_raises += 1
        if not napi.scheduled:
            napi.scheduled = True
            data.poll_list.append(napi)
            # /proc/softirqs semantics: counted only when newly scheduled.
            self.machine.interrupts.record(NET_RX, cpu_index)
        if data.net_rx_active:
            return
        data.net_rx_active = True
        if from_cpu != cpu_index:
            self.machine.interrupts.record(RES, cpu_index)
            delay = self.costs.ipi_delay_us + self._ipi_rng.random() * (
                self.costs.ipi_jitter_us
            )
            self.machine.sim.schedule(delay, self._kick, cpu_index)
        else:
            self.machine.sim.schedule(
                self.costs.softirq_entry_us, self._kick, cpu_index
            )

    def enqueue_backlog(
        self,
        skbs: Sequence[Skb],
        stage: Stage,
        selector: Selector,
        from_cpu: int,
    ) -> None:
        """``enqueue_to_backlog``: queue a batch's continuations, raise NET_RX.

        The batch is walked as runs of consecutive packets of one flow
        (one ``skb.flow`` object, so one ``hash`` and ``flow_id``). For a
        run of ``n`` packets ``selector(skb, from_cpu, n)`` picks the
        target core once, and the target's queue for ``stage`` is looked
        up once. That is the decision the selector would make for each
        packet: it reads only the flow, per-CPU load, the RFS table and
        the split switch, none of which changes within one event or when
        a packet is queued. Then, per packet in order, the packet is
        queued there and NET_RX is raised. Same-CPU enqueues are always
        admitted — ``process_backlog`` splices ``input_pkt_queue`` before
        processing, so packets a core re-injects into itself find the
        queue freshly emptied. Cross-CPU enqueues check the backlog limit
        and drop on overflow. A raise on a NAPI that is already scheduled
        while the target's softirq chain is active changes nothing but
        the demand counter, so only that counter is bumped.
        """
        tracer = self.ctx.tracer
        name = stage.name
        count = len(skbs)
        start = 0
        while start < count:
            # The first packet of a run: one decision for all of it.
            skb = skbs[start]
            flow = skb.flow
            stop = start + 1
            while stop < count and skbs[stop].flow is flow:
                stop += 1
            target_cpu = selector(skb, from_cpu, stop - start)
            data = self.data[target_cpu]
            napi = data.queues.get(name)
            if napi is None:
                napi = data.queue_for(stage)
            queue = napi.queue
            remote = from_cpu != target_cpu
            while True:
                if tracer is not None and tracer.wants(skb):
                    tracer.record(
                        skb, self.machine.sim.now, "enqueue", name, target_cpu
                    )
                skb.last_cpu = from_cpu
                if remote and len(queue) >= napi.capacity:
                    napi.drops += 1
                    if self.flowcache is not None:
                        self.flowcache.packet_terminated(skb)
                    if self.monitor is not None:
                        self.monitor.on_terminal(skb, "backlog_drop")
                else:
                    queue.append(skb)
                    if napi.scheduled and data.net_rx_active:
                        self.softirq_raises += 1
                    else:
                        self.raise_net_rx(target_cpu, napi, from_cpu)
                start += 1
                if start == stop:
                    break
                skb = skbs[start]

    # ------------------------------------------------------------------
    # net_rx_action
    # ------------------------------------------------------------------
    def _kick(self, cpu_index: int) -> None:
        self.handler_runs += 1
        cpu = self.machine.cpus[cpu_index]
        cpu.submit(
            SOFTIRQ,
            "net_rx_action",
            self.costs.softirq_dispatch.fixed,
            self._poll_round,
            cpu_index,
            self.budget,
        )

    def _poll_round(self, cpu_index: int, budget_left: int) -> None:
        """Poll the head of the core's poll list for one batch.

        The batch limit is the smallest of the NAPI weight, the budget
        left and ``batch_max``. A queue that fits the limit is taken
        whole and leaves the poll list (``napi_complete``; a driver
        queue's interrupt is re-enabled); a longer one gives up ``limit``
        packets and rotates to the tail, so other NAPI sources on the
        core get their share.
        """
        data = self.data[cpu_index]
        poll_list = data.poll_list
        while True:
            if not poll_list:
                data.net_rx_active = False
                return
            if budget_left <= 0:
                # Budget exhausted with work pending: behave like
                # ksoftirqd — yield and re-raise ourselves.
                self.machine.interrupts.record(NET_RX, cpu_index)
                self.softirq_raises += 1
                self._kick(cpu_index)
                return
            napi = poll_list.popleft()
            queue = napi.queue
            limit = napi.weight
            if budget_left < limit:
                limit = budget_left
            if self.batch_max < limit:
                limit = self.batch_max
            drained = len(queue) <= limit
            if drained:
                skbs = list(queue)
                queue.clear()
                napi.scheduled = False
                if napi.rx_queue is not None:
                    # Polled the ring dry: re-enable the hardware interrupt.
                    napi.rx_queue.napi_scheduled = False
                if not skbs:
                    continue
            else:
                popleft = queue.popleft
                skbs = [popleft() for _ in range(limit)]
                poll_list.append(napi)
            self._run_batch(
                self.machine.cpus[cpu_index],
                cpu_index,
                napi,
                skbs,
                budget_left - len(skbs),
                drained,
            )
            return

    def _run_batch(
        self,
        cpu,
        cpu_index: int,
        napi: Napi,
        skbs: List[Skb],
        budget_left: int,
        drained: bool,
    ) -> None:
        data = self.data[cpu_index]
        names: List[str] = []
        costs: List[float] = []
        outputs: List[Skb] = []
        stage = napi.stage
        self.stage_executions[stage.name] = (
            self.stage_executions.get(stage.name, 0) + len(skbs)
        )
        if stage.name != data.last_stage:
            # The core moves to a different device's softirq context.
            names.append("softirq_switch")
            costs.append(self.costs.softirq_switch.fixed)
            data.last_stage = stage.name
        stage.run_batch(
            skbs,
            cpu_index,
            self.machine.locality,
            names,
            costs,
            outputs,
            self.ctx.tracer,
            self.machine.sim.now,
        )
        # End-of-batch flush (GRO) once the source is drained.
        if drained and stage.flush is not None:
            outputs.extend(stage.flush(cpu_index))
        cpu.submit_multi(
            SOFTIRQ,
            names,
            costs,
            self._after_batch,
            cpu_index,
            stage,
            outputs,
            budget_left,
        )

    def _after_batch(
        self,
        cpu_index: int,
        stage: Stage,
        outputs: List[Skb],
        budget_left: int,
    ) -> None:
        if outputs:
            stage.exit.route(outputs, cpu_index, self.stack)
        self._poll_round(cpu_index, budget_left)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def backlog_drops(self) -> int:
        return sum(
            napi.drops for data in self.data for napi in data.queues.values()
        )

    def backlog_depth(self, cpu_index: int) -> int:
        return sum(
            len(napi.queue) for napi in self.data[cpu_index].queues.values()
        )
