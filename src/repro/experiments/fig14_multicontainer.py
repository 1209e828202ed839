"""Figure 14 — multi-container throughput in busy systems.

One flow per container; receiving CPUs limited to six cores that also
form FALCON_CPUS, so Falcon must scavenge idle cycles. As the container
count grows from 6 to 40 the receive cores go from ~70% busy to
saturated: Falcon's gain (up to ~27% UDP / 17% TCP) shrinks with load
and disappears — but never becomes a loss — once the system is
overloaded and the load gate disables it.
"""

from __future__ import annotations

from repro.core.config import FalconConfig
from repro.experiments.runner import ExperimentOutput, durations
from repro.metrics.report import Table
from repro.workloads.multiflow import run_multicontainer

FULL_COUNTS = (6, 10, 20, 30, 40)
QUICK_COUNTS = (6, 20)
RECEIVING = [1, 2, 3, 4, 5, 6]


def run(quick: bool = False) -> ExperimentOutput:
    out = ExperimentOutput("Figure 14", "Multi-container throughput in busy systems")
    dur = durations(quick, 15.0, 8.0)
    counts = QUICK_COUNTS if quick else FULL_COUNTS
    protos = ("udp",) if quick else ("udp", "tcp")

    for proto in protos:
        rate = 220_000.0 if proto == "udp" else None
        table = Table(
            ["containers", "Con kpps", "Falcon kpps", "gain %",
             "Con util %", "Falcon util %"],
            title=f"{proto.upper()} one flow per container, 6 receive cores",
        )
        series = {}
        for count in counts:
            values = {}
            utils = {}
            for label, falcon in (
                ("Con", None),
                ("Falcon", FalconConfig(cpus=list(RECEIVING))),
            ):
                result = run_multicontainer(
                    count,
                    message_size=1024,
                    proto=proto,
                    falcon=falcon,
                    receiving_cpus=list(RECEIVING),
                    rate_per_flow=rate,
                    **dur,
                )
                values[label] = result.message_rate_pps
                utils[label] = (
                    sum(result.cpu_util[cpu] for cpu in RECEIVING) / len(RECEIVING)
                )
            gain = (values["Falcon"] / values["Con"] - 1.0) * 100 if values["Con"] else 0.0
            table.add_row(
                count,
                values["Con"] / 1e3,
                values["Falcon"] / 1e3,
                gain,
                utils["Con"] * 100,
                utils["Falcon"] * 100,
            )
            series[count] = dict(values=values, utils=utils, gain=gain)
        out.tables.append(table)
        out.series[proto] = series
    return out
