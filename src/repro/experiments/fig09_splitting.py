"""Figure 9a — the first (pNIC) stage saturates a core under TCP 4 KB.

Closed-loop TCP: with 4 KB messages, ``skb`` allocation and
``napi_gro_receive`` each consume roughly half of the driver core, while
UDP or small-message TCP leave it unsaturated — the condition that makes
GRO splitting worthwhile.
"""

from __future__ import annotations

from repro.core.config import FalconConfig
from repro.experiments.runner import ExperimentOutput, durations
from repro.metrics.report import Table
from repro.workloads.sockperf import Testbed

DRIVER_CPU = 0


def run(quick: bool = False) -> ExperimentOutput:
    out = ExperimentOutput("Figure 9a", "First-stage saturation and GRO splitting")
    dur = durations(quick, 20.0, 10.0)

    # Reference case: closed-loop TCP 4 KB saturates the driver core.
    bed = Testbed(mode="host")
    bed.add_tcp_flow(4096, window_msgs=64)
    tcp4k = bed.run(**dur)
    matched_rate = tcp4k.message_rate_pps
    # Comparison cases at the *same message rate*: neither GRO-light
    # workload saturates the first stage (Section 4.2: "such a case does
    # not exist under UDP or TCP with small packets").
    tcp1k = Testbed(mode="host")
    tcp1k.add_tcp_flow(1024, window_msgs=256, rate_pps=matched_rate)
    udp4k = Testbed(mode="host")
    udp4k.add_udp_flow(4096, clients=3, rate_pps=matched_rate)
    cases = [
        ("TCP 4KB", tcp4k),
        ("TCP 1KB", tcp1k.run(**dur)),
        ("UDP 4KB", udp4k.run(**dur)),
    ]
    table = Table(
        ["workload", "driver-core util %", "skb_alloc %", "napi_gro %"],
        title=(
            f"host network, driver core occupancy at ~{matched_rate/1e3:.0f} "
            "kmsg/s"
        ),
    )
    series = {}
    for name, result in cases:
        util = result.cpu_util[DRIVER_CPU] * 100
        skb_share = result.label_shares.get("skb_alloc", 0.0)
        gro_share = result.label_shares.get("napi_gro_receive", 0.0)
        table.add_row(name, util, skb_share * 100, gro_share * 100)
        series[name] = util
    out.tables.append(table)
    out.series["driver_util"] = series

    # Effect of GRO splitting on the saturated case.
    table2 = Table(
        ["config", "rate kmsg/s", "driver-core util %"],
        title="TCP 4KB with and without GRO splitting (host network)",
    )
    for label, falcon in (
        ("vanilla", None),
        ("GRO-split", FalconConfig(split_gro=True)),
    ):
        bed = Testbed(mode="host", falcon=falcon)
        bed.add_tcp_flow(4096, window_msgs=64)
        result = bed.run(**dur)
        table2.add_row(
            label, result.message_rate_pps / 1e3, result.cpu_util[DRIVER_CPU] * 100
        )
        out.series[f"split_{label}"] = result.cpu_util[DRIVER_CPU]
    out.tables.append(table2)
    return out
