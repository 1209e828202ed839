"""Multi-host cluster scenario for the sharded engine.

A :class:`ClusterSpec` describes a set of hosts exchanging sockperf-style
flows over inter-host links. The cluster is *partition-invariant by
construction*: every cross-host interaction — frames and TCP credits —
travels as a :class:`~repro.sim.shard.records.CrossShardEvent` through
the coordinator's barrier/merge path even when source and destination
happen to live in the same shard. A 1-shard run therefore exercises the
exact same record sequence as an N-shard run, which is what lets the
shard-equivalence suite demand byte-identical traces.

Determinism over process boundaries requires two departures from the
single-host :class:`~repro.workloads.sockperf.Testbed`:

* a flow's id is its index in the spec plus one, not the next id of the
  world: which endpoints a shard builds, and in what order, depends on
  the layout, while RNG stream names and socket binding must not;
* every host owns its own :class:`~repro.sim.context.SimContext`, RNG
  registry and overlay control plane, seeded from ``(spec.seed, host
  index)`` — hosts co-located in a shard share a simulator clock but no
  mutable state, so their traces cannot depend on which hosts they were
  co-located with.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.config import FalconConfig, FlowCacheConfig
from repro.hw.link import Link
from repro.hw.lookahead import lookahead_from_latencies
from repro.kernel.skb import PROTO_TCP, PROTO_UDP, FlowKey, Skb
from repro.kernel.stack import MODE_OVERLAY, StackConfig
from repro.metrics.meters import MeasurementWindow
from repro.metrics.tracing import PacketTracer
from repro.overlay.host import Host
from repro.overlay.network import OverlayNetwork
from repro.sim.engine import Simulator
from repro.sim.errors import ConfigurationError, ShardError
from repro.sim.shard import CrossShardEvent, InlineShardHandle, ShardCoordinator
from repro.validate.golden import SCHEMA_VERSION, TIME_PRECISION
from repro.workloads.flows import TcpSender, UdpSender
from repro.workloads.traffic import ConstantRate, Saturating

RECORD_SKB = "skb"
RECORD_CREDIT = "credit"
#: Flow-cache invalidation: container churn on the destination host
#: tells each sender host to drop its egress fast-path entry.
RECORD_INVAL = "inval"


def host_ip(host: int) -> int:
    """10.0.0.(host+1) — the underlay address of a cluster host."""
    return 0x0A000000 + host + 1


def container_ip(host: int) -> int:
    """172.17.host.2 — the private address of a host's server container."""
    return 0xAC110000 + (host << 8) + 2


# ----------------------------------------------------------------------
# Specification (wire-friendly: everything round-trips through tuples)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ClusterFlow:
    """One directed flow between two cluster hosts."""

    kind: str  # "udp" | "tcp"
    src: int
    dst: int
    message_size: int
    #: UDP offered rate; None saturates. Ignored for TCP.
    rate_pps: Optional[float] = None
    window_msgs: int = 16

    def to_wire(self) -> Tuple[Any, ...]:
        return (
            self.kind,
            self.src,
            self.dst,
            self.message_size,
            self.rate_pps,
            self.window_msgs,
        )

    @classmethod
    def from_wire(cls, wire: Tuple[Any, ...]) -> "ClusterFlow":
        return cls(*wire)


@dataclass(frozen=True)
class ClusterSpec:
    """A cluster scenario, restricted to primitives so it crosses pipes."""

    num_hosts: int
    flows: Tuple[ClusterFlow, ...]
    seed: int = 0
    falcon: bool = False
    num_cpus: int = 8
    bandwidth_gbps: float = 10.0
    #: Inter-host propagation delay — the sharded engine's lookahead.
    propagation_us: float = 5.0
    warmup_us: float = 2000.0
    duration_us: float = 5000.0
    trace: bool = False
    trace_sample_every: int = 10
    trace_max: int = 64
    #: Enable the per-flow fast-path cache on every host's stack.
    flowcache: bool = False
    flowcache_capacity: int = 128
    #: Container churn events: ``(time_us, host)`` — at that time the
    #: host's server container restarts (migration / FDB flush), which
    #: invalidates its local cache entries and sends ``RECORD_INVAL`` to
    #: every sender targeting it (possibly across a shard boundary).
    churn: Tuple[Tuple[float, int], ...] = ()

    def validate(self) -> None:
        if self.num_hosts < 1:
            raise ConfigurationError("cluster needs at least one host")
        lookahead_from_latencies([self.propagation_us])
        if self.flowcache and self.flowcache_capacity < 1:
            raise ConfigurationError("flowcache capacity must be >= 1")
        for index, (time_us, h) in enumerate(self.churn):
            if time_us < 0:
                raise ConfigurationError(f"churn {index}: negative time")
            if not 0 <= h < self.num_hosts:
                raise ConfigurationError(
                    f"churn {index}: host {h} outside cluster"
                )
        for index, flow in enumerate(self.flows):
            if flow.kind not in ("udp", "tcp"):
                raise ConfigurationError(f"flow {index}: unknown kind {flow.kind!r}")
            for label, h in (("src", flow.src), ("dst", flow.dst)):
                if not 0 <= h < self.num_hosts:
                    raise ConfigurationError(
                        f"flow {index}: {label} host {h} outside cluster"
                    )
            if flow.src == flow.dst:
                raise ConfigurationError(
                    f"flow {index}: src and dst must be distinct hosts"
                )

    @property
    def end_us(self) -> float:
        return self.warmup_us + self.duration_us

    def to_wire(self) -> Tuple[Any, ...]:
        return (
            self.num_hosts,
            tuple(flow.to_wire() for flow in self.flows),
            self.seed,
            self.falcon,
            self.num_cpus,
            self.bandwidth_gbps,
            self.propagation_us,
            self.warmup_us,
            self.duration_us,
            self.trace,
            self.trace_sample_every,
            self.trace_max,
            self.flowcache,
            self.flowcache_capacity,
            tuple(tuple(entry) for entry in self.churn),
        )

    @classmethod
    def from_wire(cls, wire: Tuple[Any, ...]) -> "ClusterSpec":
        fields = list(wire)
        fields[1] = tuple(ClusterFlow.from_wire(f) for f in fields[1])
        fields[-1] = tuple(tuple(entry) for entry in fields[-1])
        return cls(*fields)


def udp_ring_spec(
    num_hosts: int = 4,
    message_size: int = 512,
    rate_pps: float = 40_000.0,
    **overrides: Any,
) -> ClusterSpec:
    """Each host streams UDP to its ring successor — the standard
    equivalence/golden scenario (every host both sends and receives)."""
    flows = tuple(
        ClusterFlow("udp", h, (h + 1) % num_hosts, message_size, rate_pps)
        for h in range(num_hosts)
    )
    return ClusterSpec(num_hosts=num_hosts, flows=flows, **overrides)


def udp_double_ring_spec(
    num_hosts: int = 3,
    message_size: int = 512,
    rate_pps: float = 40_000.0,
    rate2_pps: float = 12_000.0,
    **overrides: Any,
) -> ClusterSpec:
    """Two interleaved UDP rings (stride 1 and stride 2), so every host
    *receives two flows* — with a small ``flowcache_capacity`` this
    thrashes the ingress table and exercises the full cache lifecycle
    (miss → hit → evict → invalidate when combined with churn)."""
    if num_hosts < 3:
        raise ConfigurationError("double ring needs at least three hosts")
    flows = tuple(
        ClusterFlow("udp", h, (h + 1) % num_hosts, message_size, rate_pps)
        for h in range(num_hosts)
    ) + tuple(
        ClusterFlow("udp", h, (h + 2) % num_hosts, message_size, rate2_pps)
        for h in range(num_hosts)
    )
    return ClusterSpec(num_hosts=num_hosts, flows=flows, **overrides)


def tcp_ring_spec(
    num_hosts: int = 4,
    message_size: int = 4096,
    window_msgs: int = 8,
    **overrides: Any,
) -> ClusterSpec:
    """Closed-loop TCP ring: credits flow against the data direction."""
    flows = tuple(
        ClusterFlow(
            "tcp", h, (h + 1) % num_hosts, message_size, window_msgs=window_msgs
        )
        for h in range(num_hosts)
    )
    return ClusterSpec(num_hosts=num_hosts, flows=flows, **overrides)


# ----------------------------------------------------------------------
# Cross-shard payload codecs
# ----------------------------------------------------------------------
def encode_skb(flow_index: int, skb: Skb) -> Tuple[Any, ...]:
    return (
        flow_index,
        skb.size,
        skb.wire_size,
        skb.msg_id,
        skb.msg_size,
        skb.frag_index,
        skb.frag_count,
        skb.seq,
        skb.t_send,
        skb.encapsulated,
    )


def decode_skb(flow: FlowKey, payload: Tuple[Any, ...]) -> Skb:
    if len(payload) != 10:
        raise ShardError(
            f"malformed skb record payload: expected 10 fields, got "
            f"{len(payload)}"
        )
    (size, wire_size, msg_id, msg_size, frag_index, frag_count,
     seq, t_send, encapsulated) = payload[1:]
    return Skb(
        flow,
        size=size,
        wire_size=wire_size,
        msg_id=msg_id,
        msg_size=msg_size,
        frag_index=frag_index,
        frag_count=frag_count,
        seq=seq,
        t_send=t_send,
        encapsulated=encapsulated,
    )


class _HostOutbox:
    """Per-host staging area for records leaving this host.

    The sequence counter is per *source host*, so the merge key's
    ``(src, seq)`` component is assigned identically no matter how hosts
    are grouped into shards.
    """

    def __init__(self, host_index: int) -> None:
        self.host_index = host_index
        self._seq = 0
        self.pending: List[CrossShardEvent] = []
        #: Ownership ledger hook (REPRO_SANITIZE=1); None in normal runs.
        self._san: Optional[Any] = None
        if os.environ.get("REPRO_SANITIZE"):
            from repro.validate.sanitize import current_ledger

            self._san = current_ledger()

    def emit(self, time: float, kind: str, dst: int, payload: Tuple[Any, ...]) -> None:
        self.pending.append(
            CrossShardEvent(time, self.host_index, self._seq, kind, dst, payload)
        )
        if self._san is not None:
            self._san.acquire(
                "record", (self.host_index, self._seq), "outbox.emit"
            )
        self._seq += 1

    def drain(self) -> List[CrossShardEvent]:
        records, self.pending = self.pending, []
        return records


class ClusterUdpSender(UdpSender):
    """UDP sender whose frames leave through the cross-shard record path."""

    def __init__(self, *args: Any, outbox: _HostOutbox, flow_index: int,
                 dst_host: int, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.outbox = outbox
        self.flow_index = flow_index
        self.dst_host = dst_host

    def _transmit(self, skb: Skb) -> None:
        arrival = self.link.reserve(skb.wire_size)
        self.outbox.emit(
            arrival, RECORD_SKB, self.dst_host, encode_skb(self.flow_index, skb)
        )


class ClusterTcpSender(TcpSender):
    """TCP sender driven by credit records instead of a local callback."""

    def __init__(self, *args: Any, outbox: _HostOutbox, flow_index: int,
                 dst_host: int, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.outbox = outbox
        self.flow_index = flow_index
        self.dst_host = dst_host

    def _transmit(self, skb: Skb) -> None:
        arrival = self.link.reserve(skb.wire_size)
        self.outbox.emit(
            arrival, RECORD_SKB, self.dst_host, encode_skb(self.flow_index, skb)
        )

    def remote_credit(self) -> None:
        """A credit record arrived — the ACK's flight time is already in
        the record timestamp, so the window refills immediately."""
        self.completed_messages += 1
        self._last_activity = self.sim.now
        self.outstanding = max(self.outstanding - 1, 0)
        if self.process is None and self._allowed():
            self._fill_window()


# ----------------------------------------------------------------------
# The shard program
# ----------------------------------------------------------------------
class _ClusterHost:
    """One host's world: stack, measurement window, senders, codecs."""

    def __init__(self, sim: Simulator, spec: ClusterSpec, index: int) -> None:
        self.index = index
        falcon = FalconConfig() if spec.falcon else None
        flowcache = (
            FlowCacheConfig(capacity=spec.flowcache_capacity)
            if spec.flowcache
            else None
        )
        config = StackConfig(
            mode=MODE_OVERLAY,
            irq_cpus=[0],
            rps_cpus=[1],
            steering="rps",
            falcon=falcon,
            flowcache=flowcache,
        )
        self.host = Host(
            sim,
            config,
            num_cpus=spec.num_cpus,
            host_ip=host_ip(index),
            name=f"host{index}",
            seed=spec.seed * 1_000_003 + index,
        )
        self.host._next_container_ip = container_ip(index)
        self.network = OverlayNetwork(name=f"overlay/host{index}")
        self.container = self.host.launch_container("server")
        self.network.join(self.container)
        self.outbox = _HostOutbox(index)
        self.uplink = Link(sim, spec.bandwidth_gbps, spec.propagation_us)
        self.window = MeasurementWindow(self.host.machine, self.host.stack)
        self.tracer: Optional[PacketTracer] = None
        if spec.trace:
            self.tracer = PacketTracer(
                sample_every=spec.trace_sample_every, max_messages=spec.trace_max
            )
            self.host.stack.tracer = self.tracer
        #: flow index → this host's FlowKey instance (receive side).
        self.rx_flows: Dict[int, FlowKey] = {}
        #: flow index → sender living on this host (transmit side).
        self.senders: Dict[int, ClusterUdpSender | ClusterTcpSender] = {}
        self.messages_sent_at_open = 0

    def snapshot_open(self) -> None:
        self.messages_sent_at_open = sum(
            sender.messages_sent for sender in self.senders.values()
        )

    def result(self) -> Dict[str, Any]:
        window = self.window
        sent = (
            sum(sender.messages_sent for sender in self.senders.values())
            - self.messages_sent_at_open
        )
        doc: Dict[str, Any] = {
            "host": self.index,
            "messages_delivered": window.rate.count,
            "message_rate_pps": window.rate.rate_per_sec(),
            "goodput_gbps": window.rate.gbps(),
            "messages_sent": sent,
            "latency": window.latency.summary(),
            "drops": dict(self.host.stack.drop_counts()),
            "reordered_messages": sum(
                sock.reordered_messages
                for sock in self.host.stack.sockets.sockets()
            ),
        }
        flowcache = self.host.stack.flowcache
        if flowcache is not None:
            doc["flowcache"] = dict(sorted(flowcache.counters().items()))
            doc["fastpath_deliveries"] = self.host.stack.fastpath_deliveries
        if self.tracer is not None:
            doc["trace_entries"] = [
                [
                    trace.flow_id,
                    trace.msg_id,
                    [
                        [
                            round(event.time_us, TIME_PRECISION),
                            event.kind,
                            event.stage,
                            event.cpu,
                        ]
                        for event in trace.events
                    ],
                ]
                for trace in self.tracer.traces(complete_only=False)
            ]
        return doc


def _make_flow_key(spec: ClusterSpec, flow_index: int) -> FlowKey:
    flow = spec.flows[flow_index]
    return FlowKey(
        src_ip=host_ip(flow.src),
        dst_ip=container_ip(flow.dst),
        proto=PROTO_TCP if flow.kind == "tcp" else PROTO_UDP,
        sport=40_000 + flow_index,
        dport=5_000 + flow_index,
        flow_id=flow_index + 1,
    )


class ClusterWorld:
    """ShardProgram simulating a subset of the cluster's hosts."""

    def __init__(self, spec: ClusterSpec, hosts: Sequence[int]) -> None:
        spec.validate()
        self.spec = spec
        self.sim = Simulator()
        #: Ownership ledger hook (REPRO_SANITIZE=1); None in normal runs.
        self._san: Optional[Any] = None
        if os.environ.get("REPRO_SANITIZE"):
            from repro.validate.sanitize import current_ledger

            self._san = current_ledger()
        self._hosts = tuple(hosts)
        self.by_index: Dict[int, _ClusterHost] = {
            h: _ClusterHost(self.sim, spec, h) for h in self._hosts
        }
        for flow_index, flow in enumerate(spec.flows):
            if flow.dst in self.by_index:
                self._build_receiver(flow_index, flow)
            if flow.src in self.by_index:
                self._build_sender(flow_index, flow)
        end = spec.end_us
        for h in self._hosts:
            world_host = self.by_index[h]
            self.sim.schedule_at(spec.warmup_us, self._open_window, world_host)
            self.sim.schedule_at(end, world_host.window.close)
            for sender in world_host.senders.values():
                sender.start(until_us=end)
        # Container churn runs on the churned host's shard; the sender
        # side learns about it through RECORD_INVAL records, which cross
        # shard boundaries like any other record.
        for time_us, h in spec.churn:
            if h in self.by_index:
                self.sim.schedule_at(time_us, self._churn, self.by_index[h])

    def _churn(self, world_host: _ClusterHost) -> None:
        """The host's server container restarts (migration/FDB flush).

        Locally every cached flow touching the container's IP is stale;
        remotely, each sender that targets this host must drop its egress
        template — the invalidation travels one propagation delay, the
        same causality bound the TCP credits use.
        """
        flowcache = world_host.host.stack.flowcache
        if flowcache is not None:
            flowcache.invalidate_ip(container_ip(world_host.index))
        propagation = self.spec.propagation_us
        for flow_index, flow in enumerate(self.spec.flows):
            if flow.dst == world_host.index:
                world_host.outbox.emit(
                    self.sim.now + propagation,
                    RECORD_INVAL,
                    flow.src,
                    (flow_index,),
                )

    @staticmethod
    def _open_window(world_host: _ClusterHost) -> None:
        world_host.window.open()
        world_host.snapshot_open()

    # ------------------------------------------------------------------
    def _build_receiver(self, flow_index: int, flow: ClusterFlow) -> None:
        world_host = self.by_index[flow.dst]
        key = _make_flow_key(self.spec, flow_index)
        world_host.rx_flows[flow_index] = key
        # Encap-time resolution, done once at build so the control plane
        # state never mutates mid-run.
        world_host.network.resolve_host(key.dst_ip)
        outbox = world_host.outbox
        window = world_host.window
        propagation = self.spec.propagation_us
        is_tcp = flow.kind == "tcp"
        src_host = flow.src
        sim = self.sim

        def on_message(socket: Any, skb: Skb, latency_us: float) -> None:
            window.on_message(socket, skb, latency_us)
            if is_tcp:
                # The credit's flight back is one propagation delay —
                # >= the lookahead, so it is causality-safe to emit from
                # inside a window.
                outbox.emit(
                    sim.now + propagation, RECORD_CREDIT, src_host, (flow_index,)
                )

        world_host.host.stack.open_socket(
            key, app_cpu=2, on_message=on_message, name=f"sock{flow_index}"
        )

    def _build_sender(self, flow_index: int, flow: ClusterFlow) -> None:
        world_host = self.by_index[flow.src]
        key = _make_flow_key(self.spec, flow_index)
        stack = world_host.host.stack
        common = dict(
            outbox=world_host.outbox,
            flow_index=flow_index,
            dst_host=flow.dst,
        )
        if flow.kind == "udp":
            process = (
                Saturating()
                if flow.rate_pps is None
                else ConstantRate(flow.rate_pps)
            )
            sender: ClusterUdpSender | ClusterTcpSender = ClusterUdpSender(
                self.sim,
                world_host.uplink,
                stack,
                key,
                flow.message_size,
                stack.costs,
                world_host.host.machine.rng.stream(f"sender/{key.flow_id}/0"),
                process,
                name=f"udp{flow_index}",
                **common,
            )
        else:
            sender = ClusterTcpSender(
                self.sim,
                world_host.uplink,
                stack,
                key,
                flow.message_size,
                stack.costs,
                world_host.host.machine.rng.stream(f"sender/{key.flow_id}"),
                window_msgs=flow.window_msgs,
                name=f"tcp{flow_index}",
                **common,
            )
        world_host.senders[flow_index] = sender

    # ------------------------------------------------------------------
    # ShardProgram interface
    # ------------------------------------------------------------------
    def hosts(self) -> Sequence[int]:
        return self._hosts

    def next_time(self) -> Optional[float]:
        return self.sim.peek_time()

    def advance(self, bound: float, inclusive: bool = False) -> List[CrossShardEvent]:
        sim = self.sim
        if inclusive:
            sim.run(until=bound)
        else:
            while True:
                t = sim.peek_time()
                if t is None or t >= bound:
                    break
                sim.run(until=t)
        produced: List[CrossShardEvent] = []
        for h in self._hosts:
            produced.extend(self.by_index[h].outbox.drain())
        return produced

    def inject(self, records: Sequence[CrossShardEvent]) -> None:
        san = self._san
        for record in records:
            if san is not None:
                # Delivery to the destination shard ends the record's
                # flight; from here the payload lives in local events.
                san.release("record", (record.src, record.seq), "world.inject")
            world_host = self.by_index.get(record.dst)
            if world_host is None:
                raise ShardError(
                    f"record for host {record.dst} routed to a shard that "
                    f"simulates {self._hosts}"
                )
            if record.kind == RECORD_SKB:
                flow_index = record.payload[0]
                key = world_host.rx_flows.get(flow_index)
                if key is None:
                    raise ShardError(
                        f"skb record for unknown flow {flow_index!r} on "
                        f"host {record.dst}"
                    )
                skb = decode_skb(key, record.payload)
                self.sim.schedule_at(
                    record.time, world_host.host.stack.inject, skb
                )
            elif record.kind == RECORD_CREDIT:
                flow_index = record.payload[0] if record.payload else None
                sender = world_host.senders.get(flow_index)  # type: ignore[arg-type]
                if not isinstance(sender, ClusterTcpSender):
                    raise ShardError(
                        f"credit record for unknown TCP flow {flow_index!r} "
                        f"on host {record.dst}"
                    )
                self.sim.schedule_at(record.time, sender.remote_credit)
            elif record.kind == RECORD_INVAL:
                flow_index = record.payload[0] if record.payload else None
                sender = world_host.senders.get(flow_index)  # type: ignore[arg-type]
                if sender is None:
                    raise ShardError(
                        f"inval record for unknown flow {flow_index!r} on "
                        f"host {record.dst}"
                    )
                self.sim.schedule_at(
                    record.time, self._sender_inval, world_host, sender.flow
                )
            else:
                raise ShardError(f"unknown cross-shard record kind {record.kind!r}")

    @staticmethod
    def _sender_inval(world_host: _ClusterHost, flow: FlowKey) -> None:
        flowcache = world_host.host.stack.flowcache
        if flowcache is not None:
            flowcache.invalidate_flow(flow)

    def finalize(self) -> Dict[str, Any]:
        return {
            "hosts": [self.by_index[h].result() for h in self._hosts],
            "events_processed": self.sim.events_processed,
        }


def build_shard_world(
    spec_wire: Tuple[Any, ...], hosts: Tuple[int, ...]
) -> ClusterWorld:
    """Builder resolved inside spawn workers (see shard.transport)."""
    return ClusterWorld(ClusterSpec.from_wire(spec_wire), hosts)


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------
def partition_hosts(num_hosts: int, shards: int) -> List[Tuple[int, ...]]:
    """Contiguous, near-even host groups; every shard gets >= 1 host."""
    if shards < 1:
        raise ConfigurationError("need at least one shard")
    if shards > num_hosts:
        raise ConfigurationError(
            f"cannot split {num_hosts} hosts into {shards} shards"
        )
    base, extra = divmod(num_hosts, shards)
    groups: List[Tuple[int, ...]] = []
    start = 0
    for slot in range(shards):
        size = base + (1 if slot < extra else 0)
        groups.append(tuple(range(start, start + size)))
        start += size
    return groups


@dataclass
class ClusterResult:
    """Aggregated outcome of one cluster run."""

    spec: ClusterSpec
    shards: int
    transport: str
    messages_delivered: int
    message_rate_pps: float
    goodput_gbps: float
    avg_latency_us: float
    per_host: List[Dict[str, Any]]
    events_processed: int
    windows_run: int
    records_exchanged: int
    trace_doc: Optional[Dict[str, Any]] = None


def _merge_trace_doc(
    per_host: List[Dict[str, Any]], meta: Dict[str, Any]
) -> Dict[str, Any]:
    """Combine per-host raw trace entries into one canonical document.

    Same canonicalization as :func:`repro.validate.golden.serialize_traces`:
    dense flow indexes in ascending flow-id order, entries sorted by
    (flow, msg).
    """
    entries: List[Tuple[int, int, List[Any]]] = []
    for host_doc in per_host:
        for flow_id, msg_id, events in host_doc.get("trace_entries", []):
            entries.append((flow_id, msg_id, events))
    flow_order = sorted({flow_id for flow_id, _, _ in entries})
    flow_index = {flow_id: index for index, flow_id in enumerate(flow_order)}
    entries.sort(key=lambda entry: (flow_index[entry[0]], entry[1]))
    return {
        "schema": SCHEMA_VERSION,
        "meta": dict(meta),
        "traces": [
            {"flow": flow_index[flow_id], "msg": msg_id, "events": events}
            for flow_id, msg_id, events in entries
        ],
    }


def run_cluster(
    spec: ClusterSpec,
    shards: int = 1,
    transport: str = "inline",
    timeout_s: Optional[float] = None,
    faults: Optional[Dict[int, Tuple[str, int]]] = None,
    record_windows: bool = False,
) -> ClusterResult:
    """Run a cluster scenario split over ``shards`` shards.

    ``transport="inline"`` keeps every shard in this process (the
    deterministic reference and test configuration);
    ``transport="process"`` spawns one worker per shard and exchanges
    records over pipes. Both produce identical results by design.
    """
    spec.validate()
    groups = partition_hosts(spec.num_hosts, shards)
    lookahead = lookahead_from_latencies([spec.propagation_us])
    handles: List[Any] = []
    if transport == "inline":
        if faults:
            raise ConfigurationError("fault injection needs the process transport")
        for slot, group in enumerate(groups):
            handles.append(InlineShardHandle(slot, ClusterWorld(spec, group)))
    elif transport == "process":
        # The only OS-facing corner of the engine; imported lazily so
        # the pure-DES path never loads it.
        from repro.sim.shard.transport import (
            DEFAULT_STEP_TIMEOUT_S,
            ProcessShardHandle,
        )

        for slot, group in enumerate(groups):
            handles.append(
                ProcessShardHandle(
                    slot,
                    group,
                    "repro.overlay.cluster:build_shard_world",
                    (spec.to_wire(), group),
                    timeout_s=timeout_s or DEFAULT_STEP_TIMEOUT_S,
                    fault=(faults or {}).get(slot),
                )
            )
    else:
        raise ConfigurationError(f"unknown shard transport {transport!r}")

    coordinator = ShardCoordinator(handles, lookahead, record_windows=record_windows)
    try:
        coordinator.run(until=spec.end_us)
        shard_results = coordinator.finalize()
    finally:
        coordinator.close()

    per_host: List[Dict[str, Any]] = []
    events = 0
    for shard_doc in shard_results:
        per_host.extend(shard_doc["hosts"])
        events += int(shard_doc["events_processed"])
    per_host.sort(key=lambda doc: doc["host"])

    delivered = sum(doc["messages_delivered"] for doc in per_host)
    rate = sum(doc["message_rate_pps"] for doc in per_host)
    goodput = sum(doc["goodput_gbps"] for doc in per_host)
    weighted = sum(
        doc["latency"].get("avg", 0.0) * doc["messages_delivered"]
        for doc in per_host
    )
    trace_doc: Optional[Dict[str, Any]] = None
    if spec.trace:
        trace_doc = _merge_trace_doc(
            per_host,
            meta={
                "scenario": "cluster",
                "num_hosts": spec.num_hosts,
                "seed": spec.seed,
                "falcon": spec.falcon,
                "flows": [list(flow.to_wire()) for flow in spec.flows],
                "warmup_us": spec.warmup_us,
                "duration_us": spec.duration_us,
                # Only stamped when the cache datapath is on, so the
                # pre-cache goldens stay byte-identical.
                **(
                    {
                        "flowcache": True,
                        "flowcache_capacity": spec.flowcache_capacity,
                        "churn": [list(entry) for entry in spec.churn],
                    }
                    if spec.flowcache
                    else {}
                ),
            },
        )
        for doc in per_host:
            doc.pop("trace_entries", None)
    return ClusterResult(
        spec=spec,
        shards=shards,
        transport=transport,
        messages_delivered=delivered,
        message_rate_pps=rate,
        goodput_gbps=goodput,
        avg_latency_us=weighted / delivered if delivered else 0.0,
        per_host=per_host,
        events_processed=events,
        windows_run=coordinator.windows_run,
        records_exchanged=coordinator.records_exchanged,
        trace_doc=trace_doc,
    )
