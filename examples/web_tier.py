#!/usr/bin/env python3
"""Scenario: a containerized web tier (CloudSuite-style page loads).

Reproduces the paper's flagship application result (Figure 17): an
Elgg-like social-network site served from containers behind a Docker
overlay, 200 concurrent users loading pages (dynamic request + a burst
of static assets + the TCP ACK return traffic). Prints the per-operation
success rate, response time and delay time for the vanilla overlay vs
Falcon.

Run:  python examples/web_tier.py
"""

from repro.core.config import FalconConfig
from repro.metrics.report import Table
from repro.workloads.webserving import OPERATIONS, WebServingScenario


def main() -> None:
    results = {}
    for name, falcon in (("Con", None), ("Falcon", FalconConfig())):
        scenario = WebServingScenario(users=200, falcon=falcon)
        results[name] = scenario.run(measure_ms=30, warmup_ms=15)

    table = Table(
        ["operation", "Con op/min", "Falcon op/min", "Con resp ms",
         "Falcon resp ms", "Con delay ms", "Falcon delay ms"],
        title="Web serving, 200 users (vanilla overlay vs Falcon)",
    )
    for op in OPERATIONS:
        con, falcon = results["Con"], results["Falcon"]
        table.add_row(
            op.name,
            con.ops_per_minute(op.name),
            falcon.ops_per_minute(op.name),
            con.avg_response_ms(op.name),
            falcon.avg_response_ms(op.name),
            con.avg_delay_ms(op.name),
            falcon.avg_delay_ms(op.name),
        )
    print(table.render())
    total_con = results["Con"].total_ops
    total_falcon = results["Falcon"].total_ops
    print()
    print(
        f"Total operations: {total_con} (Con) vs {total_falcon} (Falcon) "
        f"— {total_falcon / total_con - 1:+.0%}.\n"
        "Page loads are packet-storms (assets + ACKs); the vanilla\n"
        "overlay funnels every flow's three softirq stages through two\n"
        "steering cores, and the whole site queues behind them."
    )


if __name__ == "__main__":
    main()
