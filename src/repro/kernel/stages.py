"""Packet-processing stages — the unit of softirq pipelining.

The receive path is modelled as a chain of :class:`Stage` objects. A stage
is exactly the work one softirq invocation performs for a packet at one
network device: a sequence of :class:`Step` functions executed back to
back on one core, ended by a :class:`Transition` that hands the packet to
the next stage's queue (possibly on another core) or delivers it to a
socket.

This mirrors Figure 8 of the paper: the pNIC stage
(``mlx5e_napi_poll`` → ``napi_gro_receive`` → RPS), the host-stack stage
(``process_backlog`` → ... → ``vxlan_rcv`` → ``netif_rx``), the
bridge/veth stage, and the container stage. Falcon changes *where the
transitions send packets*, never the stages themselves.

Steps may carry an *effect* — GRO merging, IP defragmentation, VXLAN
decapsulation — that can consume the packet (merge in progress) or
replace it (merged super-packet continues down the pipe).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Protocol, Sequence

from repro.hw.cache import LocalityModel
from repro.kernel.costs import FuncCost
from repro.kernel.skb import Skb
from repro.metrics.tracing import PacketTracer

#: An effect runs when the step executes. It may return the same skb, a
#: replacement (e.g. a merged super-packet), or None (consumed for now).
Effect = Callable[[Skb, int], Optional[Skb]]

#: A step's cost function: skb -> µs (costs may depend on size and protocol).
CostFn = Callable[[Skb], float]

#: A steering policy: ``(skb, current cpu, n) -> target cpu``. One call
#: decides for a run of ``n`` consecutive packets of ``skb``'s flow, so a
#: selector adds ``n`` to each counter it keeps (see
#: :meth:`repro.kernel.softirq.SoftirqNet.enqueue_backlog`).
Selector = Callable[[Skb, int, int], int]


class Step:
    """One kernel function in a stage: a cost plus an optional effect.

    A step built by :meth:`simple` prices a packet at ``fixed + per_byte *
    size`` µs, which :meth:`Stage.run_batch` computes inline (``cost`` is
    None). Only steps whose cost depends on more than the packet's size
    (``l4_rcv``, ``napi_gro_receive``, ``ip_defrag``) keep a cost callable.
    """

    __slots__ = ("name", "cost", "fixed", "per_byte", "effect")

    def __init__(
        self,
        name: str,
        cost: Optional[CostFn],
        effect: Optional[Effect] = None,
        fixed: float = 0.0,
        per_byte: float = 0.0,
    ) -> None:
        self.name = name
        self.cost = cost
        self.fixed = fixed
        self.per_byte = per_byte
        self.effect = effect

    @classmethod
    def simple(
        cls, name: str, cost: FuncCost, effect: Optional[Effect] = None
    ) -> "Step":
        return cls(name, None, effect, cost.fixed, cost.per_byte)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Step {self.name}>"


class StackPort(Protocol):
    """The slice of NetworkStack the transitions need (avoids an import cycle)."""

    def enqueue_backlog(
        self, skbs: Sequence[Skb], stage: "Stage", selector: Selector, from_cpu: int
    ) -> None: ...

    def deliver_to_socket(self, skb: Skb, cpu_index: int) -> None: ...


class Transition:
    """Routes the packets a softirq batch leaves a stage with.

    Subclasses decide the target. ``route`` takes the whole batch, in
    order, so a batch pays one call.
    """

    def route(self, skbs: Sequence[Skb], cpu_index: int, stack: StackPort) -> None:
        raise NotImplementedError


class EnqueueTransition(Transition):
    """Enqueue to (possibly remote) per-CPU backlogs and raise softirqs.

    ``selector(skb, cpu_index, n) -> target cpu`` encapsulates the
    steering policy: RPS steering, Falcon's ``get_falcon_cpu``, or the
    vanilla behaviour of staying on the current core. The softnet asks it
    once per run of ``n`` consecutive same-flow packets.
    """

    def __init__(
        self,
        next_stage: "Stage",
        selector: Selector,
        name: str = "netif_rx",
    ) -> None:
        self.next_stage = next_stage
        self.selector = selector
        self.name = name

    def route(self, skbs: Sequence[Skb], cpu_index: int, stack: StackPort) -> None:
        stack.enqueue_backlog(skbs, self.next_stage, self.selector, cpu_index)


class SocketDeliver(Transition):
    """Terminal transition: hand each packet to its destination socket."""

    def route(self, skbs: Sequence[Skb], cpu_index: int, stack: StackPort) -> None:
        deliver = stack.deliver_to_socket
        for skb in skbs:
            deliver(skb, cpu_index)


class FlowCachePort(Protocol):
    """The slice of :class:`repro.kernel.flowcache.FlowCache` a datapath
    decision needs (avoids an import cycle with the step builders)."""

    def access_rx(self, skb: Skb) -> bool: ...


class FastPathTransition(Transition):
    """Datapath selection at the driver exit: consult the flow cache.

    A hit routes via ``hit`` (the single-step fast-path stage feeding the
    container tail directly); a miss routes via ``miss`` (the unchanged
    slow device chain). The cache stamps ``skb.fastpath`` with the
    verdict so downstream exit hooks can settle the ordering-gate ledger.
    Each lookup has side effects, so the decision is made, and the packet
    routed, one packet at a time, in batch order.
    """

    def __init__(
        self,
        cache: FlowCachePort,
        hit: Transition,
        miss: Transition,
        name: str = "flowcache",
    ) -> None:
        self.cache = cache
        self.hit = hit
        self.miss = miss
        self.name = name

    def route(self, skbs: Sequence[Skb], cpu_index: int, stack: StackPort) -> None:
        access_rx = self.cache.access_rx
        for skb in skbs:
            if access_rx(skb):
                self.hit.route((skb,), cpu_index, stack)
            else:
                self.miss.route((skb,), cpu_index, stack)


class Stage:
    """A softirq-granularity processing stage at one network device."""

    def __init__(
        self,
        name: str,
        ifindex: int,
        steps: List[Step],
        exit: Transition,
        flush: Optional[Callable[[int], List[Skb]]] = None,
    ) -> None:
        self.name = name
        #: The device index Falcon mixes into its hash (``dev->ifindex``).
        self.ifindex = ifindex
        self.steps = steps
        self.exit = exit
        #: Optional end-of-batch hook (GRO flush) returning held packets.
        self.flush = flush

    def run_batch(
        self,
        skbs: Sequence[Skb],
        cpu_index: int,
        locality: LocalityModel,
        names: List[str],
        costs: List[float],
        outputs: List[Skb],
        tracer: Optional[PacketTracer],
        now: float,
    ) -> None:
        """Execute the stage's steps for every packet of one softirq batch.

        All ``skbs`` belong to this stage: one NAPI instance serves one
        stage. Per packet, in batch order, each charge's function label
        is appended to ``names`` and its busy µs to ``costs`` (two
        parallel lists), and the packet that exits the stage (the input,
        or an effect's replacement) to ``outputs``; a packet an effect
        consumed (e.g. a GRO merge in progress) exits nothing.
        Charges are scaled by the locality multiplier, the cost of
        touching packet data last written by another core; it is looked
        up again only when ``skb.last_cpu`` differs from the previous
        packet's. With a tracer, each sampled packet gets one ``exec``
        record at ``now``.
        """
        if tracer is not None:
            name = self.name
            for skb in skbs:
                if tracer.wants(skb):
                    tracer.record(skb, now, "exec", name, cpu_index)
        ifindex = self.ifindex
        steps = self.steps
        multiplier_of = locality.multiplier
        add_name = names.append
        add_cost = costs.append
        # No core has index -1, so the first packet always looks it up.
        prev_cpu: Optional[int] = -1
        multiplier = 1.0
        for skb in skbs:
            skb.dev_ifindex = ifindex
            last_cpu = skb.last_cpu
            if last_cpu != prev_cpu:
                multiplier = multiplier_of(last_cpu, cpu_index)
                prev_cpu = last_cpu
            current: Optional[Skb] = skb
            for step in steps:
                cost_fn = step.cost
                if cost_fn is None:
                    cost = (step.fixed + step.per_byte * current.size) * multiplier
                else:
                    cost = cost_fn(current) * multiplier
                if cost > 0.0:
                    add_name(step.name)
                    add_cost(cost)
                if step.effect is not None:
                    current = step.effect(current, cpu_index)
                    if current is None:
                        break
            if current is not None:
                outputs.append(current)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Stage {self.name} ifindex={self.ifindex}>"
