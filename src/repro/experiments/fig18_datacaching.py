"""Figure 18 — CloudSuite Data Caching (memcached) latency.

Average and 99th-percentile request latency at 1 and 10 client threads.
The paper: with one client Falcon trims the tail slightly (~7%); at ten
clients interrupt handling dominates and Falcon cuts both average and
tail latency by ~51%/53%.
"""

from __future__ import annotations

from repro.core.config import FalconConfig
from repro.experiments.runner import ExperimentOutput, durations
from repro.metrics.report import Table
from repro.workloads.memcached import MemcachedScenario

CLIENTS_FULL = (1, 10)
CLIENTS_QUICK = (10,)


def run(quick: bool = False) -> ExperimentOutput:
    out = ExperimentOutput("Figure 18", "Data caching (memcached) latency")
    dur = durations(quick, 25.0, 12.0)
    clients_list = CLIENTS_QUICK if quick else CLIENTS_FULL
    table = Table(
        ["clients", "metric", "Con us", "Falcon us", "reduction %"],
        title="memcached request latency (550 B objects)",
    )
    series = {}
    for clients in clients_list:
        results = {}
        for label, falcon in (("Con", None), ("Falcon", FalconConfig())):
            scenario = MemcachedScenario(clients=clients, falcon=falcon)
            results[label] = scenario.run(**dur)
        for metric in ("avg", "p99"):
            con = results["Con"].latency[metric]
            fal = results["Falcon"].latency[metric]
            table.add_row(
                clients, metric, con, fal,
                (1.0 - fal / con) * 100 if con else 0.0,
            )
        series[clients] = {
            label: result.latency for label, result in results.items()
        }
        series[(clients, "rps")] = {
            label: result.throughput_rps for label, result in results.items()
        }
    out.tables.append(table)
    out.series.update(series)
    return out
