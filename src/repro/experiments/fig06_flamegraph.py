"""Figure 6 — flamegraph shares: sockperf vs memcached.

The paper's flamegraphs show that for a uniform micro-benchmark
(sockperf) the overlay's overhead appears as additional, roughly
equally-weighted poll functions (``gro_cell_poll``, ``process_backlog``,
``mlx5e_napi_poll``), while a realistic mixed workload (memcached) makes
certain softirqs dominate. We reproduce the per-function CPU shares from
the simulator's accounting.
"""

from __future__ import annotations

from repro.experiments.runner import ExperimentOutput, durations
from repro.metrics.report import Table
from repro.workloads.memcached import MemcachedScenario
from repro.workloads.sockperf import Testbed

TOP_N = 10

#: Map fine-grained step labels onto the poll functions Figure 6 names.
POLL_GROUPS = {
    "mlx5e_napi_poll": ("skb_alloc", "napi_gro_receive", "rps_steer"),
    "gro_cell_poll": ("gro_cell_poll", "br_handle_frame", "veth_xmit"),
    "process_backlog": ("process_backlog", "ip_rcv", "ip_defrag", "l4_rcv",
                        "sock_enqueue", "vxlan_rcv", "netif_rx"),
}


def group_shares(label_shares) -> dict:
    grouped = {name: 0.0 for name in POLL_GROUPS}
    for group, members in POLL_GROUPS.items():
        for member in members:
            grouped[group] += label_shares.get(member, 0.0)
    return grouped


def run(quick: bool = False) -> ExperimentOutput:
    out = ExperimentOutput("Figure 6", "Flamegraph CPU shares: sockperf vs memcached")
    dur = durations(quick, 25.0, 10.0)

    bed = Testbed(mode="overlay")
    bed.add_udp_flow(16, rate_pps=300_000)
    sockperf = bed.run(**dur)
    scenario = MemcachedScenario(clients=8, mode="overlay")
    scenario.run(**dur)
    memcached_shares = scenario.bed.window.cpu.label_shares()

    table = Table(
        ["function", "sockperf %", "memcached %"],
        title="per-function share of total CPU (overlay mode)",
    )
    all_labels = sorted(
        set(sockperf.label_shares) | set(memcached_shares),
        key=lambda name: -(sockperf.label_shares.get(name, 0.0)),
    )[:TOP_N]
    for name in all_labels:
        table.add_row(
            name,
            sockperf.label_shares.get(name, 0.0) * 100,
            memcached_shares.get(name, 0.0) * 100,
        )
    out.tables.append(table)

    grouped_sock = group_shares(sockperf.label_shares)
    grouped_mem = group_shares(memcached_shares)
    table2 = Table(
        ["poll function", "sockperf %", "memcached %"],
        title="grouped by poll function (the paper's flamegraph frames)",
    )
    for name in POLL_GROUPS:
        table2.add_row(name, grouped_sock[name] * 100, grouped_mem[name] * 100)
    out.tables.append(table2)
    out.series["sockperf"] = grouped_sock
    out.series["memcached"] = grouped_mem
    return out
