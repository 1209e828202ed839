"""Figure 10 — UDP single-flow stress: Host vs Con vs Falcon.

Packet rates across message sizes, both link speeds and both kernel
generations (4.19 and 5.4). The headline claims: Falcon reaches
near-native rates on 10G and up to ~87% of native on 100G; the vanilla
overlay stays far behind for small messages.
"""

from __future__ import annotations

from repro.experiments.runner import ExperimentOutput, durations, standard_modes
from repro.metrics.report import Table
from repro.workloads.sockperf import Testbed, udp_plateau

FULL_SIZES = (16, 256, 1024, 1400, 4096, 65507)
QUICK_SIZES = (16, 1400)


def _run_case(kwargs, size, dur, quick):
    if size > 1400:  # fragmented: use the plateau-search methodology
        return udp_plateau(size, iterations=4 if quick else 8, **kwargs, **dur)
    bed = Testbed(**kwargs)
    bed.add_udp_flow(size, clients=3)
    return bed.run(**dur)


def run(quick: bool = False) -> ExperimentOutput:
    out = ExperimentOutput("Figure 10", "UDP single-flow stress packet rates")
    dur = durations(quick, 15.0, 8.0)
    sizes = QUICK_SIZES if quick else FULL_SIZES
    links = (100.0,) if quick else (10.0, 100.0)
    kernels = ("4.19",) if quick else ("4.19", "5.4")

    for kernel in kernels:
        for bandwidth in links:
            table = Table(
                ["size B", "Host kpps", "Con kpps", "Falcon kpps",
                 "Con/Host", "Falcon/Host"],
                title=f"kernel {kernel}, {bandwidth:.0f}G link",
            )
            series = {}
            for size in sizes:
                values = {}
                for label, kwargs in standard_modes():
                    kwargs = dict(kwargs, kernel=kernel, bandwidth_gbps=bandwidth)
                    result = _run_case(kwargs, size, dur, quick)
                    values[label] = result.message_rate_pps
                host = values["Host"] or 1.0
                table.add_row(
                    size,
                    values["Host"] / 1e3,
                    values["Con"] / 1e3,
                    values["Falcon"] / 1e3,
                    values["Con"] / host,
                    values["Falcon"] / host,
                )
                series[size] = values
            out.tables.append(table)
            out.series[(kernel, bandwidth)] = series
    return out
