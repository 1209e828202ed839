"""Figure 16 — adaptability: two-choice vs static balancing under a hotspot.

Several flows share the Falcon CPU set; one flow suddenly quadruples its
rate, overloading the core its stages hash to. The static policy cannot
move any softirq away; the two-choice policy re-hashes softirqs off the
hot core. The paper reports ~18% (UDP) / ~15% (TCP) higher throughput
for the dynamic policy, with consistent results across runs.
"""

from __future__ import annotations

from repro.experiments.runner import ExperimentOutput, durations
from repro.metrics.report import Table
from repro.workloads.multiflow import run_hotspot

SEEDS_FULL = (0, 1, 2)
SEEDS_QUICK = (0,)


def run(quick: bool = False) -> ExperimentOutput:
    out = ExperimentOutput(
        "Figure 16", "Two-choice dynamic balancing vs static hashing under a hotspot"
    )
    dur = durations(quick, 20.0, 8.0)
    seeds = SEEDS_QUICK if quick else SEEDS_FULL
    table = Table(
        ["policy", "seed", "kpps", "p99 us"],
        title="4 UDP flows, one bursts 4x mid-run",
    )
    series = {"static": [], "two_choice": []}
    for policy in ("static", "two_choice"):
        for seed in seeds:
            result = run_hotspot(
                policy,
                seed=seed,
                burst_at_ms=dur["warmup_ms"] * 0.5,
                **dur,
            )
            table.add_row(
                policy,
                seed,
                result.message_rate_pps / 1e3,
                result.latency["p99"],
            )
            series[policy].append(result.message_rate_pps)
    out.tables.append(table)

    static_mean = sum(series["static"]) / len(series["static"])
    dynamic_mean = sum(series["two_choice"]) / len(series["two_choice"])
    summary = Table(["policy", "mean kpps", "gain %"], title="summary")
    summary.add_row("static", static_mean / 1e3, 0.0)
    summary.add_row(
        "two_choice",
        dynamic_mean / 1e3,
        (dynamic_mean / static_mean - 1.0) * 100 if static_mean else 0.0,
    )
    out.tables.append(summary)
    out.series.update(series)
    out.series["gain"] = dynamic_mean / static_mean if static_mean else 0.0
    return out
