"""Differential testing: the steering/datapath regimes must agree on
semantics.

Falcon changes *where* packets are processed; the flow cache changes
*which stages* they traverse. Neither may change *what* happens to them.
This module runs the same workload twice — one regime per side, by
default vanilla RPS vs Falcon, but any pair from ``REGIMES`` (vanilla,
falcon, oncache, oncache_falcon) — and asserts the properties every
regime is required to preserve:

* **message conservation** — every message the clients sent is delivered
  exactly once on both sides (the workloads are deliberately underloaded
  and fully drained, so drops would be a bug, not congestion);
* **per-flow delivery order** — each flow's messages complete in send
  order on both sides (Falcon keeps flows core-sticky per stage, so it
  must not introduce reordering);
* **identical application-level byte counts** — the two sides deliver
  the same messages with the same sizes, byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: One recorded delivery: (msg_id, msg_size) in completion order.
Delivery = Tuple[int, int]


#: Regime label -> (enable falcon, enable flow cache).
REGIMES: Dict[str, Tuple[bool, bool]] = {
    "vanilla": (False, False),
    "falcon": (True, False),
    "oncache": (False, True),
    "oncache_falcon": (True, True),
}


@dataclass
class SideRecord:
    """Everything one side (one regime) of a differential run saw."""

    label: str
    #: flow index (creation order) -> deliveries in completion order.
    deliveries: Dict[int, List[Delivery]] = field(default_factory=dict)
    #: flow index -> messages the senders pushed onto the wire.
    sent: Dict[int, int] = field(default_factory=dict)
    drops: Dict[str, int] = field(default_factory=dict)
    reordered: int = 0

    @property
    def delivered_messages(self) -> int:
        return sum(len(entries) for entries in self.deliveries.values())

    @property
    def delivered_bytes(self) -> int:
        return sum(size for entries in self.deliveries.values() for _m, size in entries)


@dataclass
class DiffScenario:
    """One workload to run on both sides of the differential."""

    name: str
    proto: str = "udp"  # "udp" | "tcp"
    message_size: int = 512
    #: Per-flow constant offered rate (UDP); must stay under capacity.
    rate_pps: float = 40_000.0
    flows: int = 2
    window_msgs: int = 16
    duration_ms: float = 8.0
    warmup_ms: float = 2.0
    #: Extra simulated time for in-flight tail messages to complete.
    drain_ms: float = 8.0
    seed: int = 0
    #: The two regimes to compare (labels from :data:`REGIMES`).
    regimes: Tuple[str, str] = ("vanilla", "falcon")


@dataclass
class DiffReport:
    """Outcome of one differential run."""

    scenario: DiffScenario
    baseline: SideRecord
    candidate: SideRecord
    failures: List[str]

    @property
    def ok(self) -> bool:
        return not self.failures


def _run_side(scenario: DiffScenario, regime: str) -> SideRecord:
    from repro.core.config import FalconConfig, FlowCacheConfig
    from repro.workloads.sockperf import Testbed

    use_falcon, use_cache = REGIMES[regime]
    falcon = FalconConfig() if use_falcon else None
    flowcache = FlowCacheConfig() if use_cache else None
    label = regime
    bed = Testbed(
        mode="overlay", falcon=falcon, flowcache=flowcache, seed=scenario.seed
    )
    record = SideRecord(label=label)
    flow_keys = []
    for index in range(scenario.flows):
        record.deliveries[index] = []

        def on_message(_socket, skb, _latency_us, index=index):
            record.deliveries[index].append((skb.msg_id, skb.msg_size))

        if scenario.proto == "udp":
            flow = bed.add_udp_flow(
                scenario.message_size,
                rate_pps=scenario.rate_pps,
                on_message=on_message,
            )
        else:
            # Paced, not closed-loop: a saturating window would let the
            # faster side send more messages and the byte counts would
            # differ for throughput reasons, not correctness ones.
            flow = bed.add_tcp_flow(
                scenario.message_size,
                window_msgs=scenario.window_msgs,
                rate_pps=scenario.rate_pps,
                on_message=on_message,
            )
        flow_keys.append(flow)
    bed.run(warmup_ms=scenario.warmup_ms, measure_ms=scenario.duration_ms)
    # Drain: senders have stopped; let in-flight tail messages complete so
    # conservation is exact rather than modulo the cutoff.
    end = bed.sim.now + scenario.drain_ms * 1000.0
    bed.sim.run(until=end)
    for index, flow in enumerate(flow_keys):
        record.sent[index] = sum(
            sender.messages_sent
            for sender in bed.senders
            if sender.flow.flow_id == flow.flow_id
        )
    record.drops = {k: v for k, v in bed.stack.drop_counts().items() if v}
    record.reordered = sum(
        sock.reordered_messages for sock in bed.stack.sockets.sockets()
    )
    return record


def compare_sides(baseline: SideRecord, candidate: SideRecord) -> List[str]:
    """The regime-invariant properties, as readable failure messages."""
    failures: List[str] = []
    for side in (baseline, candidate):
        if side.drops:
            failures.append(
                f"{side.label}: dropped packets in an underloaded run: {side.drops}"
            )
        if side.reordered:
            failures.append(
                f"{side.label}: {side.reordered} messages delivered out of order"
            )
        for flow_index in sorted(side.deliveries):
            delivered = side.deliveries[flow_index]
            sent = side.sent.get(flow_index, 0)
            if len(delivered) != sent:
                failures.append(
                    f"{side.label}: message conservation broken on flow "
                    f"{flow_index}: sent {sent} messages but delivered "
                    f"{len(delivered)}"
                )
            ids = [msg_id for msg_id, _size in delivered]
            for position in range(1, len(ids)):
                if ids[position] < ids[position - 1]:
                    failures.append(
                        f"{side.label}: flow {flow_index} delivery order broken "
                        f"at position {position}: msg {ids[position]} completed "
                        f"after msg {ids[position - 1]}"
                    )
                    break
    if set(baseline.deliveries) != set(candidate.deliveries):
        failures.append(
            f"flow sets differ: {baseline.label} {sorted(baseline.deliveries)} vs "
            f"{candidate.label} {sorted(candidate.deliveries)}"
        )
    for flow_index in sorted(set(baseline.deliveries) & set(candidate.deliveries)):
        want = baseline.deliveries[flow_index]
        got = candidate.deliveries[flow_index]
        if want == got:
            continue
        if len(want) != len(got):
            failures.append(
                f"flow {flow_index}: {baseline.label} delivered {len(want)} "
                f"messages, {candidate.label} {len(got)}"
            )
        for position, (w, g) in enumerate(zip(want, got)):
            if w != g:
                failures.append(
                    f"flow {flow_index} position {position}: {baseline.label} "
                    f"delivered msg {w[0]} ({w[1]} B), {candidate.label} "
                    f"msg {g[0]} ({g[1]} B)"
                )
                break
    if baseline.delivered_bytes != candidate.delivered_bytes:
        failures.append(
            f"application byte counts differ: {baseline.label} "
            f"{baseline.delivered_bytes} vs {candidate.label} "
            f"{candidate.delivered_bytes}"
        )
    return failures


def run_differential(scenario: DiffScenario) -> DiffReport:
    """Run ``scenario`` on both sides and compare."""
    baseline = _run_side(scenario, scenario.regimes[0])
    candidate = _run_side(scenario, scenario.regimes[1])
    return DiffReport(
        scenario=scenario,
        baseline=baseline,
        candidate=candidate,
        failures=compare_sides(baseline, candidate),
    )


#: Scenarios `repro validate` runs by default.
DIFFERENTIAL_SCENARIOS = (
    DiffScenario(name="udp_fixed_small", proto="udp", message_size=512, rate_pps=40_000.0),
    DiffScenario(
        name="udp_fixed_fragmented",
        proto="udp",
        message_size=4096,
        rate_pps=8_000.0,
        flows=1,
    ),
    DiffScenario(
        name="tcp_paced_4k",
        proto="tcp",
        message_size=4096,
        rate_pps=10_000.0,
        flows=1,
        window_msgs=64,
    ),
    # The fast-path cache skips the slow device chain on hits; the
    # ordering gate must keep delivery semantics identical to vanilla
    # (same payload sets, same per-flow order, zero reorders).
    DiffScenario(
        name="udp_fixed_oncache",
        proto="udp",
        message_size=512,
        rate_pps=40_000.0,
        regimes=("vanilla", "oncache"),
    ),
    DiffScenario(
        name="udp_fixed_oncache_falcon",
        proto="udp",
        message_size=512,
        rate_pps=40_000.0,
        regimes=("vanilla", "oncache_falcon"),
    ),
    DiffScenario(
        name="tcp_paced_oncache",
        proto="tcp",
        message_size=4096,
        rate_pps=10_000.0,
        flows=1,
        window_msgs=64,
        regimes=("vanilla", "oncache"),
    ),
)
