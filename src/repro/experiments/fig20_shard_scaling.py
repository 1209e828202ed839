"""Figure 20 — shard-count scaling of the parallel simulation engine.

Not a paper figure: this measures the *simulator itself*. The same
4-host UDP ring cluster runs at increasing shard counts (1 shard inline
= the sequential reference; 2/4 shards = one spawn worker per shard,
conservative window-barrier sync). Two things must hold:

* every row reports the **identical simulated result** — delivered
  message count and rate are partition-invariant by construction (the
  shard-equivalence test suite proves this byte-for-byte on traces);
* events/sec should rise with shard count **on multi-core hosts**. On a
  single-core host the process transport can only lose (IPC and barrier
  overhead with no parallelism to pay for it), so the speedup column is
  honest, not aspirational — interpret it alongside the reported CPU
  count.
"""

from __future__ import annotations

import os

from repro.experiments.runner import ExperimentOutput
from repro.metrics.report import Table
from repro.overlay.cluster import run_cluster, udp_ring_spec

SHARDS_FULL = (1, 2, 4)
SHARDS_QUICK = (1, 2)


def run(quick: bool = False) -> ExperimentOutput:
    from repro.experiments.run_all import wall_seconds

    out = ExperimentOutput(
        "Figure 20", "Sharded-engine scaling (simulator events/sec by shard count)"
    )
    shard_counts = SHARDS_QUICK if quick else SHARDS_FULL
    spec = udp_ring_spec(
        num_hosts=4,
        message_size=1024,
        rate_pps=None,  # saturating — throughput-bound, not pacing-bound
        seed=0,
        propagation_us=25.0,
        warmup_us=1000.0,
        duration_us=3000.0 if quick else 10_000.0,
    )

    cpus = os.cpu_count() or 1
    table = Table(
        ["shards", "transport", "delivered", "windows", "records",
         "events/s", "speedup"],
        title=f"sharded run of one 4-host UDP ring ({cpus} host CPU(s))",
    )
    series = {}
    base_eps = None
    reference_delivered = None
    for shards in shard_counts:
        transport = "inline" if shards == 1 else "process"
        started = wall_seconds()
        result = run_cluster(spec, shards=shards, transport=transport)
        wall = wall_seconds() - started
        eps = result.events_processed / wall if wall > 0 else 0.0
        if base_eps is None:
            base_eps = eps
        if reference_delivered is None:
            reference_delivered = result.messages_delivered
        elif result.messages_delivered != reference_delivered:
            raise AssertionError(
                f"shard equivalence broken: {shards} shards delivered "
                f"{result.messages_delivered}, reference {reference_delivered}"
            )
        table.add_row(
            shards,
            transport,
            result.messages_delivered,
            result.windows_run,
            result.records_exchanged,
            eps,
            eps / base_eps if base_eps else 0.0,
        )
        series[shards] = dict(
            transport=transport,
            messages_delivered=result.messages_delivered,
            windows_run=result.windows_run,
            records_exchanged=result.records_exchanged,
            events=result.events_processed,
        )
    out.tables.append(table)
    out.series["by_shards"] = series
    return out
