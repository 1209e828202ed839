"""Differential testing: the steering/datapath regimes must agree on
semantics.

Falcon changes *where* packets are processed; the flow cache changes
*which stages* they traverse. Neither may change *what* happens to them.
This module runs one catalogue workload (:mod:`repro.scenarios`) once on
its baseline regime and once per candidate regime, and asserts the
properties every regime is required to preserve:

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
from typing import Dict, List, Optional, Sequence, Tuple

#: One recorded delivery: (msg_id, msg_size) in completion order.
Delivery = Tuple[int, int]


#: Simulated time after the senders stop for in-flight tail messages to
#: complete, so conservation is exact rather than modulo the cutoff.
DRAIN_MS = 8.0


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
class DiffReport:
    """One candidate regime compared against its workload's baseline."""

    name: str
    baseline: SideRecord
    candidate: SideRecord
    failures: List[str]

    @property
    def ok(self) -> bool:
        return not self.failures


def _record_deliveries(socket, deliveries: List[Delivery]) -> None:
    """Append ``(msg_id, msg_size)`` to ``deliveries`` on every completion."""
    inner = socket.on_message

    def on_message(sock, skb, latency_us):
        inner(sock, skb, latency_us)
        deliveries.append((skb.msg_id, skb.msg_size))

    socket.on_message = on_message


def _run_side(name: str, regime: Optional[str] = None) -> SideRecord:
    from repro import scenarios

    entry = scenarios.SCENARIOS[name]
    bed = scenarios.build(name, regime=regime)
    record = SideRecord(label=regime or entry.regime)
    # Flow index = creation order (flow ids count up per run).
    flows = {sender.flow.flow_id: sender.flow for sender in bed.senders}
    for index, flow in enumerate(flows.values()):
        record.deliveries[index] = []
        _record_deliveries(bed.stack.sockets.lookup(flow), record.deliveries[index])
    bed.run(warmup_ms=entry.warmup_ms, measure_ms=entry.measure_ms)
    bed.sim.run(until=bed.sim.now + DRAIN_MS * 1000.0)
    for index, flow_id in enumerate(flows):
        record.sent[index] = sum(
            sender.messages_sent
            for sender in bed.senders
            if sender.flow.flow_id == flow_id
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


def run_differential(name: str, candidates: Sequence[str]) -> List[DiffReport]:
    """Run entry ``name`` once as the baseline, then once per candidate."""
    baseline = _run_side(name)
    reports = []
    for regime in candidates:
        candidate = _run_side(name, regime)
        reports.append(
            DiffReport(
                name=f"{name}/{regime}",
                baseline=baseline,
                candidate=candidate,
                failures=compare_sides(baseline, candidate),
            )
        )
    return reports
