"""Figure 15 — sensitivity to FALCON_LOAD_THRESHOLD.

The multi-container busy-system workload at moderate and high load,
sweeping the utilization threshold that gates Falcon. Always-on hurts
when the system is loaded (parallelization steals cycles the flows need)
while a low threshold forgoes parallelization headroom; the paper finds
80–90% best.
"""

from __future__ import annotations

from repro.core.config import FalconConfig
from repro.experiments.runner import ExperimentOutput, durations
from repro.metrics.report import Table
from repro.workloads.multiflow import run_multicontainer

RECEIVING = [1, 2, 3, 4, 5, 6]
FULL_THRESHOLDS = (0.5, 0.7, 0.8, 0.9, None)  # None = always on
QUICK_THRESHOLDS = (0.7, 0.9, None)


def run(quick: bool = False) -> ExperimentOutput:
    out = ExperimentOutput("Figure 15", "Load-threshold sensitivity")
    dur = durations(quick, 15.0, 8.0)
    thresholds = QUICK_THRESHOLDS if quick else FULL_THRESHOLDS
    loads = ((10, "moderate"), (24, "high")) if not quick else ((10, "moderate"),)

    for containers, load_label in loads:
        table = Table(
            ["threshold", "kpps", "vs vanilla %"],
            title=f"{containers} containers ({load_label} load), UDP 1 KB",
        )
        vanilla = run_multicontainer(
            containers,
            message_size=1024,
            proto="udp",
            falcon=None,
            receiving_cpus=list(RECEIVING),
            rate_per_flow=220_000.0,
            **dur,
        ).message_rate_pps
        series = {"vanilla": vanilla}
        for threshold in thresholds:
            if threshold is None:
                falcon = FalconConfig(
                    cpus=list(RECEIVING), threshold_enabled=False
                )
                label = "always-on"
            else:
                falcon = FalconConfig(
                    cpus=list(RECEIVING), load_threshold=threshold
                )
                label = f"{threshold:.0%}"
            result = run_multicontainer(
                containers,
                message_size=1024,
                proto="udp",
                falcon=falcon,
                receiving_cpus=list(RECEIVING),
                rate_per_flow=220_000.0,
                **dur,
            )
            gain = (result.message_rate_pps / vanilla - 1.0) * 100 if vanilla else 0.0
            table.add_row(label, result.message_rate_pps / 1e3, gain)
            series[label] = result.message_rate_pps
        out.tables.append(table)
        out.series[load_label] = series
    return out
