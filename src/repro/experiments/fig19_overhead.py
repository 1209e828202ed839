"""Figure 19 — overhead analysis: CPU usage and softirq counts at fixed rates.

16 B single-flow UDP at fixed packet rates. Falcon's costs come from
interrupt redistribution (more, smaller softirqs — ~45% more raises in
the paper) and loss of locality; total CPU stays close to the vanilla
overlay (≤10% more at high rates) because the vanilla path's own
softirq-context thrashing already wrecks locality.
"""

from __future__ import annotations

from repro.experiments.runner import ExperimentOutput, durations, standard_modes
from repro.metrics.report import Table
from repro.sim.stats import fold_sum
from repro.workloads.sockperf import Testbed

RATES_FULL = (100_000, 200_000, 300_000, 400_000)
RATES_QUICK = (200_000,)


def run(quick: bool = False) -> ExperimentOutput:
    out = ExperimentOutput("Figure 19", "Overhead of Falcon at fixed packet rates")
    dur = durations(quick, 20.0, 10.0)
    rates = RATES_QUICK if quick else RATES_FULL

    table_cpu = Table(
        ["rate kpps", "Host cores", "Con cores", "Falcon cores", "Falcon/Con"],
        title="(a) total CPU usage (core-equivalents) at fixed rate",
    )
    table_irq = Table(
        ["rate kpps", "Con handlers/s", "Falcon handlers/s", "extra %"],
        title="(b) softirq handler invocations per second",
    )
    series = {}
    for rate in rates:
        usage = {}
        raises = {}
        for label, kwargs in standard_modes():
            bed = Testbed(**kwargs)
            bed.add_udp_flow(16, rate_pps=float(rate))
            result = bed.run(**dur)
            usage[label] = fold_sum(result.cpu_util)
            raises[label] = result.softirq_handler_runs / (
                result.duration_us * 1e-6
            )
        table_cpu.add_row(
            rate / 1e3,
            usage["Host"],
            usage["Con"],
            usage["Falcon"],
            usage["Falcon"] / usage["Con"] if usage["Con"] else 0.0,
        )
        table_irq.add_row(
            rate / 1e3,
            raises["Con"],
            raises["Falcon"],
            (raises["Falcon"] / raises["Con"] - 1.0) * 100 if raises["Con"] else 0.0,
        )
        series[rate] = dict(cpu=usage, raises=raises)
    out.tables.extend([table_cpu, table_irq])
    out.series["by_rate"] = series
    return out
