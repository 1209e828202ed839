"""sockperf-style micro-benchmark harness: :class:`Testbed` and :func:`udp_plateau`.

This module is the reproduction's equivalent of the paper's sockperf
test rig and the one way to build and run a single-host experiment:
a :class:`Testbed` is a two-machine testbed (a fully-simulated receiving
server plus sender clients over a serializing link). Add UDP flows
(stress, fixed-rate, Poisson) or TCP flows (streaming, paced) to it,
then ``run(warmup_ms=, measure_ms=)`` returns a :class:`RunResult` with
every quantity the paper's figures report — packet rate, goodput,
latency percentiles, per-core utilization, interrupt counts, drops.
:func:`udp_plateau` is the plateau search for fragmented messages.

Three network modes mirror the paper's comparison cases (Section 6):

* ``host``            — native network, no containers (Host),
* ``overlay``         — vanilla Docker/VXLAN overlay (Con),
* ``overlay + falcon``— Falcon-enabled overlay (pass a FalconConfig).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.config import FalconConfig, FlowCacheConfig
from repro.kernel.skb import PROTO_TCP, PROTO_UDP, FlowKey
from repro.kernel.stack import MODE_OVERLAY, StackConfig
from repro.metrics.meters import MeasurementWindow
from repro.overlay.host import Host
from repro.sim.clock import MS
from repro.sim.engine import Simulator
from repro.sim.errors import ConfigurationError
from repro.workloads.flows import FlowState, TcpSender, UdpSender
from repro.workloads.traffic import ConstantRate, PoissonRate, Saturating


@dataclass
class RunResult:
    """Everything one scenario run measured."""

    mode: str
    proto: str
    message_size: int
    duration_us: float
    messages_delivered: int
    #: Delivered application messages per second.
    message_rate_pps: float
    #: Goodput in Gbit/s of delivered message payload.
    goodput_gbps: float
    #: Offered load in messages per second over the window.
    offered_pps: float
    latency: Dict[str, float]
    #: Per-core total utilization over the window (index = cpu).
    cpu_util: List[float]
    #: Per-core softirq-context utilization.
    cpu_softirq: List[float]
    #: Flamegraph-style busy-share per kernel function.
    label_shares: Dict[str, float]
    interrupts: Dict[str, int]
    softirq_raises: int
    #: net_rx_action handler invocations over the window.
    softirq_handler_runs: int
    #: Packets processed per pipeline stage over the window.
    stage_executions: Dict[str, int]
    drops: Dict[str, int]
    reordered_messages: int
    falcon_steered: int = 0
    falcon_fallbacks: int = 0
    #: Flow-cache counters (zero when the cache is off).
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    cache_invalidations: int = 0
    cache_egress_hits: int = 0
    cache_egress_misses: int = 0
    #: Wire segments delivered via the cached fast path.
    fastpath_deliveries: int = 0

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def avg_latency_us(self) -> float:
        return self.latency.get("avg", 0.0)

    @property
    def p99_latency_us(self) -> float:
        return self.latency.get("p99", 0.0)


class Testbed:
    """A built scenario: server host, ingress link, flows and senders."""

    # Not a pytest test class, despite the Test* name.
    __test__ = False

    def __init__(
        self,
        mode: str = MODE_OVERLAY,
        falcon: Optional[FalconConfig] = None,
        flowcache: Optional[FlowCacheConfig] = None,
        kernel: str = "4.19",
        bandwidth_gbps: float = 100.0,
        irq_cpus: Optional[List[int]] = None,
        rps_cpus: Optional[List[int]] = None,
        steering: str = "rps",
        app_cpus: Optional[List[int]] = None,
        gro: bool = True,
        seed: int = 0,
    ) -> None:
        """Build the server host and its ingress link.

        ``irq_cpus`` (one NIC queue per entry, default ``[0]``) and
        ``app_cpus`` (round-robin socket readers, default ``[2]``) must
        name at least one CPU. ``rps_cpus`` defaults to ``[1]``; an empty
        list turns RPS off. A CPU index outside the host's machine raises
        :class:`~repro.sim.errors.ConfigurationError`, as does an empty
        ``irq_cpus`` or ``app_cpus``.
        """
        for name, cpus in (("irq_cpus", irq_cpus), ("app_cpus", app_cpus)):
            if cpus is not None and not cpus:
                raise ConfigurationError(f"{name} must name at least one CPU")
        irq_cpus = [0] if irq_cpus is None else list(irq_cpus)
        self.sim = Simulator()
        self.mode = mode
        config = StackConfig(
            mode=mode,
            kernel=kernel,
            irq_cpus=irq_cpus,
            nic_queues=len(irq_cpus),
            rps_cpus=rps_cpus if rps_cpus is not None else [1],
            steering=steering,
            falcon=falcon,
            flowcache=flowcache,
            gro_enabled=gro,
        )
        self.host = Host(self.sim, config, name="server", seed=seed)
        self.stack = self.host.stack
        self.link = self.host.attach_ingress(bandwidth_gbps)
        self.app_cpus = [2] if app_cpus is None else list(app_cpus)
        for name, cpus in (
            ("irq_cpus", irq_cpus),
            ("rps_cpus", config.rps_cpus or []),
            ("app_cpus", self.app_cpus),
        ):
            self._check_cpus(name, cpus)
        self._next_app = 0
        self._next_client_ip = 0x0B000001 + seed * 4096
        # Vary ports with the seed so repeated runs draw different flow
        # hashes (the paper reports consistency across runs — each run's
        # flows hash differently).
        self._next_sport = 40000 + (seed * 131) % 10000
        self.senders: List = []
        self.window = MeasurementWindow(self.host.machine, self.stack)
        self._tcp_by_flow: Dict[int, TcpSender] = {}
        self._reorders_at_open = 0
        self._sockets: List = []

        if mode == MODE_OVERLAY:
            self.server_container = self.host.launch_container("server")
        else:
            self.server_container = None
        #: Server → client return link (built lazily by request/response
        #: workloads; the paper's testbed links are full duplex).
        self._egress_link = None

    @property
    def egress_link(self):
        if self._egress_link is None:
            from repro.hw.link import Link

            self._egress_link = Link(
                self.sim, self.link.bandwidth_gbps, self.link.propagation_us
            )
        return self._egress_link

    def new_container(self, name: str):
        """Launch another container on the server host."""
        if self.mode != MODE_OVERLAY:
            raise ValueError("containers only exist in overlay mode")
        return self.host.launch_container(name)

    # ------------------------------------------------------------------
    # Flow construction
    # ------------------------------------------------------------------
    def _check_cpus(self, name: str, cpus: List[int]) -> None:
        """Raise ConfigurationError naming ``name`` if a CPU is not on the host."""
        num_cpus = self.host.machine.num_cpus
        outside = [cpu for cpu in cpus if not 0 <= cpu < num_cpus]
        if outside:
            raise ConfigurationError(
                f"{name}: CPU index {outside[0]} is outside the host's "
                f"{num_cpus} CPUs"
            )

    def _alloc_app_cpu(self) -> int:
        cpu = self.app_cpus[self._next_app % len(self.app_cpus)]
        self._next_app += 1
        return cpu

    def _make_flow(self, proto: int, dport: int, container=None) -> FlowKey:
        src_ip = self._next_client_ip
        self._next_client_ip += 1
        sport = self._next_sport
        self._next_sport += 1
        if self.mode == MODE_OVERLAY:
            dst_ip = (container or self.server_container).private_ip
        else:
            dst_ip = self.host.host_ip
        flow_id = self.host.ctx.new_flow_id()
        return FlowKey(src_ip, dst_ip, proto, sport, dport, flow_id)

    def _open_socket(
        self,
        flow: FlowKey,
        app_cpu: Optional[int],
        on_message=None,
        auto_credit: bool = True,
    ):
        if app_cpu is None:
            cpu = self._alloc_app_cpu()
        else:
            self._check_cpus("app_cpu", [app_cpu])
            cpu = app_cpu

        def callback(socket, skb, latency_us):
            self.window.on_message(socket, skb, latency_us)
            if auto_credit:
                sender = self._tcp_by_flow.get(skb.flow.flow_id)
                if sender is not None:
                    sender.credit()
            if on_message is not None:
                on_message(socket, skb, latency_us)

        socket = self.stack.open_socket(flow, cpu, on_message=callback)
        self._sockets.append(socket)
        return socket

    def sender_for(self, flow: FlowKey):
        """The TcpSender driving ``flow`` (for manual credit workloads)."""
        return self._tcp_by_flow.get(flow.flow_id)

    def add_udp_flow(
        self,
        message_size: int,
        clients: int = 1,
        rate_pps: Optional[float] = None,
        poisson: bool = False,
        process=None,
        app_cpu: Optional[int] = None,
        dport: int = 0,
        on_message=None,
        container=None,
    ) -> FlowKey:
        """Create one UDP flow with ``clients`` sender threads.

        ``rate_pps`` is the *aggregate* target rate (split across
        clients); None means saturating stress mode. ``clients`` must be
        at least 1.
        """
        if clients < 1:
            raise ConfigurationError(f"clients must be >= 1, got {clients}")
        flow = self._make_flow(
            PROTO_UDP, dport or (5000 + len(self.senders)), container
        )
        self._open_socket(flow, app_cpu, on_message)
        shared = FlowState()
        costs = self.stack.costs
        for index in range(clients):
            if process is not None:
                client_process = process
            elif rate_pps is None:
                client_process = Saturating()
            elif poisson:
                client_process = PoissonRate(rate_pps / clients)
            else:
                client_process = ConstantRate(rate_pps / clients)
            sender = UdpSender(
                self.sim,
                self.link,
                self.stack,
                flow,
                message_size,
                costs,
                self.host.machine.rng.stream(f"sender/{flow.flow_id}/{index}"),
                client_process,
                shared_state=shared,
                name=f"udp{flow.flow_id}.{index}",
            )
            self.senders.append(sender)
        return flow

    def add_tcp_flow(
        self,
        message_size: int,
        window_msgs: int = 16,
        rate_pps: Optional[float] = None,
        poisson: bool = False,
        app_cpu: Optional[int] = None,
        dport: int = 0,
        on_message=None,
        container=None,
        retransmit_timeout_us: Optional[float] = None,
        auto_credit: bool = True,
    ) -> FlowKey:
        """Create one closed-loop (or paced) TCP flow.

        With ``auto_credit`` (default) the sender's window is released as
        soon as the request is delivered to the server application —
        right for streaming. Request/response workloads that want the
        window held until the *response* (or full page) completes pass
        ``auto_credit=False`` and call ``sender_for(flow).credit()``
        themselves.
        """
        flow = self._make_flow(
            PROTO_TCP, dport or (5000 + len(self.senders)), container
        )
        self._open_socket(flow, app_cpu, on_message, auto_credit=auto_credit)
        if rate_pps is None:
            process = None
        elif poisson:
            process = PoissonRate(rate_pps)
        else:
            process = ConstantRate(rate_pps)
        sender = TcpSender(
            self.sim,
            self.link,
            self.stack,
            flow,
            message_size,
            self.stack.costs,
            self.host.machine.rng.stream(f"sender/{flow.flow_id}"),
            window_msgs=window_msgs,
            process=process,
            retransmit_timeout_us=retransmit_timeout_us,
            name=f"tcp{flow.flow_id}",
        )
        self.senders.append(sender)
        self._tcp_by_flow[flow.flow_id] = sender
        return flow

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, warmup_ms: float = 10.0, measure_ms: float = 25.0) -> RunResult:
        # Written as negated comparisons so that NaN fails them too.
        if not warmup_ms >= 0:
            raise ConfigurationError(f"warmup_ms must be >= 0, got {warmup_ms}")
        if not measure_ms > 0:
            raise ConfigurationError(f"measure_ms must be > 0, got {measure_ms}")
        warmup_us = warmup_ms * MS
        measure_us = measure_ms * MS
        end_us = warmup_us + measure_us
        for sender in self.senders:
            sender.start(until_us=end_us)
        self.sim.run(until=warmup_us)
        self.window.open()
        sent_at_open = sum(sender.messages_sent for sender in self.senders)
        self._reorders_at_open = sum(
            sock.reordered_messages for sock in self._sockets
        )
        self.sim.run(until=end_us)
        self.window.close()
        sent_in_window = (
            sum(sender.messages_sent for sender in self.senders) - sent_at_open
        )
        return self._collect(measure_us, sent_in_window)

    def _collect(self, duration_us: float, sent_in_window: int) -> RunResult:
        window = self.window
        machine = self.host.machine
        falcon = self.stack.falcon
        proto = "tcp" if self._tcp_by_flow else "udp"
        sizes = {sender.message_size for sender in self.senders}
        reorders = (
            sum(sock.reordered_messages for sock in self._sockets)
            - self._reorders_at_open
        )
        flowcache = self.stack.flowcache
        cache = flowcache.counters() if flowcache is not None else {}
        mode_label = self.mode
        if flowcache is not None:
            mode_label = f"{mode_label}+cache"
        if falcon is not None:
            mode_label = f"{mode_label}+falcon"
        return RunResult(
            mode=mode_label,
            proto=proto,
            message_size=max(sizes) if sizes else 0,
            duration_us=duration_us,
            messages_delivered=window.rate.count,
            message_rate_pps=window.rate.rate_per_sec(),
            goodput_gbps=window.rate.gbps(),
            offered_pps=sent_in_window / duration_us * 1e6 if duration_us else 0.0,
            latency=window.latency.summary(),
            cpu_util=[
                window.cpu.utilization(index) for index in range(machine.num_cpus)
            ],
            cpu_softirq=[
                window.cpu.utilization_context(index, 1)
                for index in range(machine.num_cpus)
            ],
            label_shares=window.cpu.label_shares(),
            interrupts=window.interrupt_deltas(),
            softirq_raises=window.softirq_raise_delta(),
            softirq_handler_runs=window.handler_run_delta(),
            stage_executions=window.stage_execution_deltas(),
            drops=window.drop_deltas(),
            reordered_messages=reorders,
            falcon_steered=falcon.steered if falcon else 0,
            falcon_fallbacks=falcon.fallbacks if falcon else 0,
            cache_hits=cache.get("ingress_hits", 0),
            cache_misses=cache.get("ingress_misses", 0),
            cache_evictions=cache.get("ingress_evictions", 0),
            cache_invalidations=cache.get("ingress_invalidations", 0),
            cache_egress_hits=cache.get("egress_hits", 0),
            cache_egress_misses=cache.get("egress_misses", 0),
            fastpath_deliveries=self.stack.fastpath_deliveries,
        )


def udp_plateau(
    message_size: int,
    clients: int = 3,
    loss_target: float = 0.03,
    warmup_ms: float = 5.0,
    measure_ms: float = 10.0,
    iterations: int = 8,
    **testbed_kwargs,
) -> RunResult:
    """The paper's stress methodology for fragmented messages.

    "We kept increasing the sending rate until received packet rate
    plateaued and packet drop occurred." For messages that fit in one
    MTU, saturating clients measure the plateau directly (dropping a
    wire packet drops exactly one message). For fragmented messages a
    random fragment drop kills a whole message, so sustained overload
    collapses goodput; this instead binary-searches the highest offered
    rate whose message loss stays under ``loss_target``. Each probe is a
    fresh ``Testbed(**testbed_kwargs)``.
    """

    def probe(rate_pps: Optional[float]) -> RunResult:
        bed = Testbed(**testbed_kwargs)
        bed.add_udp_flow(message_size, clients=clients, rate_pps=rate_pps)
        return bed.run(warmup_ms=warmup_ms, measure_ms=measure_ms)

    stress = probe(None)
    if stress.offered_pps <= 0:
        return stress
    if stress.message_rate_pps >= stress.offered_pps * (1.0 - loss_target):
        return stress  # sender-bound: the plateau is the sender limit
    lo, hi = 0.0, stress.offered_pps
    best: Optional[RunResult] = None
    for _ in range(iterations):
        rate = (lo + hi) / 2.0
        result = probe(rate)
        delivered = result.message_rate_pps
        if delivered >= rate * (1.0 - loss_target):
            if best is None or delivered > best.message_rate_pps:
                best = result
            lo = rate
        else:
            hi = rate
    return best if best is not None else stress
