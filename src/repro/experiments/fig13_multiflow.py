"""Figure 13 — multi-flow throughput with dedicated Falcon cores.

One client per flow, RSS/RPS enabled everywhere, FALCON_CPUS dedicated
and idle. Panels: (a, b) UDP 16 B packet rate vs flow count on both
kernels; (c, d) TCP 4 KB with GRO splitting, including the Host+
configuration (host network + GRO splitting), where the paper reports
Host+ beating Host by up to 56% and Falcon beating even Host by up to
37%.
"""

from __future__ import annotations

from repro.core.config import FalconConfig
from repro.experiments.runner import ExperimentOutput, durations
from repro.metrics.report import Table
from repro.workloads.sockperf import Testbed

FULL_FLOWS = (1, 2, 4, 6, 8)
QUICK_FLOWS = (2, 4)

#: Multi-flow layout: steering over two cores, Falcon set dedicated.
RPS = [1, 2]
FALCON_CPUS = [3, 4, 5, 6]
APPS = list(range(10, 18))


def run(quick: bool = False) -> ExperimentOutput:
    out = ExperimentOutput("Figure 13", "Multi-flow UDP and TCP throughput")
    dur = durations(quick, 15.0, 8.0)
    flows_list = QUICK_FLOWS if quick else FULL_FLOWS
    kernels = ("4.19",) if quick else ("4.19", "5.4")

    for kernel in kernels:
        # --- UDP -----------------------------------------------------------
        table_udp = Table(
            ["flows", "Host kpps", "Con kpps", "Falcon kpps", "Falcon/Con"],
            title=f"UDP 16 B multi-flow, kernel {kernel}",
        )
        udp_series = {}
        for flows in flows_list:
            values = {}
            cases = [
                ("Host", dict(mode="host")),
                ("Con", dict(mode="overlay")),
                ("Falcon", dict(mode="overlay", falcon=FalconConfig(cpus=FALCON_CPUS))),
            ]
            for label, kwargs in cases:
                bed = Testbed(rps_cpus=RPS, app_cpus=APPS, kernel=kernel, **kwargs)
                for _ in range(flows):
                    bed.add_udp_flow(16)
                values[label] = bed.run(**dur).message_rate_pps
            table_udp.add_row(
                flows,
                values["Host"] / 1e3,
                values["Con"] / 1e3,
                values["Falcon"] / 1e3,
                values["Falcon"] / values["Con"] if values["Con"] else 0.0,
            )
            udp_series[flows] = values
        out.tables.append(table_udp)
        out.series[("udp", kernel)] = udp_series

        # --- TCP -----------------------------------------------------------
        table_tcp = Table(
            ["flows", "Host kmsg/s", "Host+ kmsg/s", "Con kmsg/s",
             "Falcon kmsg/s", "Falcon/Host"],
            title=f"TCP 4 KB multi-flow, kernel {kernel} (GRO splitting)",
        )
        tcp_series = {}
        for flows in flows_list:
            values = {}
            cases = [
                ("Host", dict(mode="host")),
                (
                    "Host+",
                    dict(
                        mode="host",
                        falcon=FalconConfig(cpus=FALCON_CPUS, split_gro=True),
                    ),
                ),
                ("Con", dict(mode="overlay")),
                (
                    "Falcon",
                    dict(
                        mode="overlay",
                        falcon=FalconConfig(cpus=FALCON_CPUS, split_gro=True),
                    ),
                ),
            ]
            for label, kwargs in cases:
                bed = Testbed(rps_cpus=RPS, app_cpus=APPS, kernel=kernel, **kwargs)
                for _ in range(flows):
                    bed.add_tcp_flow(4096, window_msgs=64)
                values[label] = bed.run(**dur).message_rate_pps
            table_tcp.add_row(
                flows,
                values["Host"] / 1e3,
                values["Host+"] / 1e3,
                values["Con"] / 1e3,
                values["Falcon"] / 1e3,
                values["Falcon"] / values["Host"] if values["Host"] else 0.0,
            )
            tcp_series[flows] = values
        out.tables.append(table_tcp)
        out.series[("tcp", kernel)] = tcp_series
    return out
