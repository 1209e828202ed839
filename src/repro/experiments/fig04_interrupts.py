"""Figure 4 — hardware and software interrupt rates, native vs overlay.

Fixed-rate UDP traffic. Three views of "how many interrupts":

* **device softirqs per packet** — the paper's call-graph claim
  (Section 3.1/3.2): one device softirq per packet natively (the pNIC
  driver poll) vs three in the overlay (pNIC, VXLAN, veth) — the ratio
  the NET_RX bars of Figure 4 (≈3.6x) reflect;
* **NET_RX raises** — the demand side (one per packet per device stage);
* **/proc/softirqs NET_RX** — kernel-accurate scheduling events, which
  coalesce while a poll chain stays busy (reported for completeness; at
  equal offered rate the overloaded overlay core coalesces *more*).

RES counts cover softirq wake-IPIs only; the paper's RES spike is
scheduler rebalancing, which is out of scope (see EXPERIMENTS.md).
"""

from __future__ import annotations

from repro.experiments.runner import ExperimentOutput, durations
from repro.metrics.report import Table
from repro.workloads.sockperf import Testbed

KINDS = ("hardirq", "NET_RX", "RES", "TIMER")

#: Stage names that are device softirq executions (the RPS backlog hop is
#: packet steering inside softirq #1, not an extra device).
DEVICE_STAGES = {
    "host": ("pnic",),
    "overlay": ("pnic", "vxlan", "container"),
}


def run(quick: bool = False) -> ExperimentOutput:
    out = ExperimentOutput(
        "Figure 4", "Interrupt rates in native vs overlay networks"
    )
    dur = durations(quick, 25.0, 10.0)
    rate = 250_000.0
    results = {}
    executions = {}
    for label, mode in (("Host", "host"), ("Con", "overlay")):
        bed = Testbed(mode=mode)
        bed.add_udp_flow(16, clients=1, rate_pps=rate)
        result = bed.run(warmup_ms=dur["warmup_ms"], measure_ms=dur["duration_ms"])
        results[label] = result
        executions[label] = (result.stage_executions, mode)

    window_s = results["Host"].duration_us * 1e-6
    table = Table(
        ["interrupt", "Host /s", "Con /s", "Con/Host"],
        title=f"interrupt rates at {rate/1e3:.0f} kpps UDP (16 B)",
    )
    series = {}
    for kind in KINDS:
        host = results["Host"].interrupts.get(kind, 0) / window_s
        con = results["Con"].interrupts.get(kind, 0) / window_s
        ratio = con / host if host else 0.0
        table.add_row(kind, host, con, ratio)
        series[kind] = (host, con)

    host_raises = results["Host"].softirq_raises / window_s
    con_raises = results["Con"].softirq_raises / window_s
    table.add_row("NET_RX raises", host_raises, con_raises, con_raises / host_raises)
    series["NET_RX_raises"] = (host_raises, con_raises)

    # Device softirq executions per delivered packet.
    per_packet = {}
    for label, (execs, mode) in executions.items():
        delivered = max(results[label].messages_delivered, 1)
        device_execs = sum(execs.get(name, 0) for name in DEVICE_STAGES[mode])
        per_packet[label] = device_execs / delivered
    table.add_row(
        "device softirqs/pkt",
        per_packet["Host"],
        per_packet["Con"],
        per_packet["Con"] / per_packet["Host"] if per_packet["Host"] else 0.0,
    )
    series["device_softirqs"] = (per_packet["Host"], per_packet["Con"])
    out.tables.append(table)
    out.series["interrupts"] = series
    return out
