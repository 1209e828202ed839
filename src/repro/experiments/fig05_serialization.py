"""Figure 5 — softirq serialization and load imbalance.

Fixed-rate UDP, single-flow and multi-flow, reporting per-core CPU
utilization split into softirq and other time. The paper's observations
to reproduce: the overlay burns far more CPU than the host network for
the same traffic, most of it stacked as softirq time on a single core
(single flow), and multi-flow tests cannot use more cores than flows.
"""

from __future__ import annotations

from repro.experiments.runner import ExperimentOutput, durations
from repro.metrics.report import Table
from repro.workloads.multiflow import run_multiflow_udp
from repro.workloads.sockperf import Experiment

CORES_SHOWN = 8


def _add_rows(table, label, result):
    for cpu in range(CORES_SHOWN):
        util = result.cpu_util[cpu]
        softirq = result.cpu_softirq[cpu]
        if util < 0.005:
            continue
        table.add_row(label, cpu, util * 100, softirq * 100)


def run(quick: bool = False) -> ExperimentOutput:
    out = ExperimentOutput("Figure 5", "Serialization of softirqs and load imbalance")
    dur = durations(quick, 25.0, 10.0)

    # --- single flow -----------------------------------------------------
    table_single = Table(
        ["case", "cpu", "util %", "softirq %"],
        title="single-flow UDP @ 250 kpps (16 B)",
    )
    single = {}
    for label, kwargs in (("Host", dict(mode="host")), ("Con", dict(mode="overlay"))):
        result = Experiment(**kwargs).run_udp_fixed(16, rate_pps=250_000, **dur)
        _add_rows(table_single, label, result)
        single[label] = result
    out.tables.append(table_single)

    # --- multi flow ---------------------------------------------------------
    flows = 5
    table_multi = Table(
        ["case", "cpu", "util %", "softirq %"],
        title=f"multi-flow UDP, {flows} flows @ 120 kpps each (16 B)",
    )
    multi = {}
    for label, kwargs in (("Host", dict(mode="host")), ("Con", dict(mode="overlay"))):
        result = run_multiflow_udp(
            flows,
            message_size=16,
            rate_per_flow=120_000.0,
            rps_cpus=list(range(1, 9)),
            **kwargs,
            **dur,
        )
        _add_rows(table_multi, label, result)
        multi[label] = result
    out.tables.append(table_multi)

    out.series["single"] = {
        label: (result.cpu_util[:CORES_SHOWN], result.cpu_softirq[:CORES_SHOWN])
        for label, result in single.items()
    }
    out.series["multi"] = {
        label: (result.cpu_util[:CORES_SHOWN], result.cpu_softirq[:CORES_SHOWN])
        for label, result in multi.items()
    }
    out.series["total_busy"] = {
        label: sum(result.cpu_util) for label, result in single.items()
    }
    return out
