"""Figure 17 — CloudSuite Web Serving under vanilla overlay vs Falcon.

200 users against the Elgg-like stack. Three panels: successful
operations per minute, average response time, and average delay time
(actual minus target), per operation type.
"""

from __future__ import annotations

from repro.experiments.runner import ExperimentOutput, durations, falcon_config
from repro.metrics.report import Table
from repro.workloads.webserving import OPERATIONS, run_webserving


def run(quick: bool = False) -> ExperimentOutput:
    out = ExperimentOutput("Figure 17", "Web serving (CloudSuite) with 200 users")
    dur = durations(quick, 30.0, 15.0)
    results = {}
    for label, falcon in (("Con", None), ("Falcon", falcon_config())):
        results[label] = run_webserving(
            users=200,
            falcon=falcon,
            duration_ms=dur["duration_ms"],
            warmup_ms=dur["warmup_ms"],
        )

    table_ops = Table(
        ["operation", "Con op/min", "Falcon op/min", "gain %"],
        title="(a) successful operations per minute",
    )
    table_resp = Table(
        ["operation", "Con ms", "Falcon ms", "reduction %"],
        title="(b) average response time",
    )
    table_delay = Table(
        ["operation", "Con ms", "Falcon ms", "reduction %"],
        title="(c) average delay time (actual - target)",
    )
    series = {}
    for op in OPERATIONS:
        name = op.name
        con, fal = results["Con"], results["Falcon"]
        ops_con, ops_fal = con.ops_per_minute(name), fal.ops_per_minute(name)
        resp_con, resp_fal = con.avg_response_ms(name), fal.avg_response_ms(name)
        delay_con, delay_fal = con.avg_delay_ms(name), fal.avg_delay_ms(name)
        table_ops.add_row(
            name, ops_con, ops_fal,
            (ops_fal / ops_con - 1.0) * 100 if ops_con else 0.0,
        )
        table_resp.add_row(
            name, resp_con, resp_fal,
            (1.0 - resp_fal / resp_con) * 100 if resp_con else 0.0,
        )
        table_delay.add_row(
            name, delay_con, delay_fal,
            (1.0 - delay_fal / delay_con) * 100 if delay_con else 0.0,
        )
        series[name] = dict(
            ops=(ops_con, ops_fal),
            response_ms=(resp_con, resp_fal),
            delay_ms=(delay_con, delay_fal),
        )
    out.tables.extend([table_ops, table_resp, table_delay])
    out.series["per_op"] = series
    out.series["total_ops"] = (
        results["Con"].total_ops,
        results["Falcon"].total_ops,
    )
    return out
