#!/usr/bin/env python3
"""Scenario: a microservice fleet on one busy node.

The second real-world case Section 6.4 highlights: many flows with
unbalanced traffic, where more flows than cores co-locate and hash
collisions pile several flows' softirqs on the same core. We place 24
single-flow containers on a node whose receive processing is confined to
6 cores (the paper's Figure 14 setup) and compare the vanilla overlay
with Falcon — including the tail latency that an SLO would care about.

Run:  python examples/microservices.py
"""

from repro.core.config import FalconConfig
from repro.metrics.report import Table
from repro.workloads.multiflow import run_multicontainer

CONTAINERS = 24
RECEIVE_CORES = [1, 2, 3, 4, 5, 6]


def main() -> None:
    table = Table(
        ["case", "kpps", "avg us", "p99 us", "receive-core util %"],
        title=f"{CONTAINERS} containers, RPC-sized messages, 6 receive cores",
    )
    for name, falcon in (
        ("vanilla overlay", None),
        ("Falcon", FalconConfig(cpus=list(RECEIVE_CORES))),
    ):
        result = run_multicontainer(
            CONTAINERS,
            message_size=1024,
            proto="udp",
            falcon=falcon,
            receiving_cpus=list(RECEIVE_CORES),
            rate_per_flow=120_000.0,
            measure_ms=25,
            warmup_ms=10,
        )
        util = sum(result.cpu_util[cpu] for cpu in RECEIVE_CORES) / len(
            RECEIVE_CORES
        )
        table.add_row(
            name,
            result.message_rate_pps / 1e3,
            result.latency["avg"],
            result.latency["p99"],
            util * 100,
        )
    print(table.render())
    print()
    print(
        "With more flows than receive cores, consistent hashing parks\n"
        "several flows' softirq pipelines on the same core while others\n"
        "idle. Falcon multiplexes the stages over whatever idle cycles\n"
        "exist and backs off (load threshold) when there are none."
    )


if __name__ == "__main__":
    main()
