"""Figure 11 — per-core CPU utilization of a single UDP flow.

16 B single-flow UDP stress on the 100G link. The paper's reading:

* vanilla Linux can use at most three cores — hardirq+first softirq
  (core 0), the rest of the softirqs (core 1), and user-space copy
  (core 2); in the overlay, core 1 is overloaded by three stages;
* Falcon recruits two additional cores for the extra softirq stages and
  becomes bottlenecked, like the host network, on the user-space copy.
"""

from __future__ import annotations

from repro.experiments.runner import ExperimentOutput, durations, standard_modes
from repro.metrics.report import Table
from repro.workloads.sockperf import Experiment

CORES_SHOWN = 8


def run(quick: bool = False) -> ExperimentOutput:
    out = ExperimentOutput("Figure 11", "CPU utilization of a single 16 B UDP flow")
    dur = durations(quick, 20.0, 10.0)
    table = Table(
        ["case", "cpu", "total %", "softirq %", "user %"],
        title="per-core utilization under single-flow UDP stress (100G)",
    )
    series = {}
    for label, kwargs in standard_modes():
        result = Experiment(**kwargs).run_udp_stress(16, **dur)
        used = []
        for cpu in range(CORES_SHOWN):
            util = result.cpu_util[cpu]
            if util < 0.01:
                continue
            softirq = result.cpu_softirq[cpu]
            user = max(util - softirq, 0.0)
            table.add_row(label, cpu, util * 100, softirq * 100, user * 100)
            used.append(cpu)
        series[label] = {
            "rate": result.message_rate_pps,
            "cores_used": used,
            "util": result.cpu_util[:CORES_SHOWN],
        }
    out.tables.append(table)
    out.series["cases"] = series
    return out
