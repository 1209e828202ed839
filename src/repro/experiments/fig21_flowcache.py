"""Figure 21 — the per-flow fast-path cache (ONCache) as a third datapath.

Two panels:

* **(a) four-regime stress comparison** — vanilla overlay, Falcon,
  ONCache, and ONCache+Falcon on the same multi-flow UDP workload. The
  load ramps (low rate while the cache warms, then stress): the ordering
  gate only grants fast-path hits when a flow has no slow-path packets
  in flight, so a cold cache under saturation never populates — exactly
  like the real ONCache, whose first packet must complete the slow path
  before the flow table entry goes live. A warm cache self-sustains
  under overload because all-hit traffic keeps the slow path empty.

* **(b) flow-count sweep across cache sizes** — ingress hit rate and
  throughput vs concurrent flows for several cache capacities. Once the
  flow count exceeds the capacity, LRU thrash collapses the hit rate;
  at or below capacity the steady state is all-hits.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core.config import FlowCacheConfig
from repro.experiments.runner import ExperimentOutput, durations, falcon_config
from repro.metrics.report import Table
from repro.workloads.sockperf import RunResult, Testbed
from repro.workloads.traffic import ConstantRate, HotspotSchedule

MESSAGE_SIZE = 512
RPS = [1, 2]
FALCON_CPUS = [3, 4, 5, 6]
APPS = list(range(10, 16))

#: Panel (a): per-flow rates of the ramp (µs-timestamped schedule).
WARM_RATE_PPS = 30_000.0
STRESS_RATE_PPS = 260_000.0
STRESS_FLOWS = 8

#: Panel (b): sweep dimensions. The per-flow rate keeps the aggregate
#: under the slow-path capacity even cold, so the gate opens at every
#: flow count and the hit rate is set by capacity, not by overload.
SWEEP_FLOWS = (2, 4, 8, 16, 32)
QUICK_SWEEP_FLOWS = (4, 16)
SWEEP_CAPACITIES = (8, 32, 128)
QUICK_SWEEP_CAPACITIES = (8, 128)
SWEEP_RATE_PPS = 12_000.0

#: The four regimes of the comparison: (label, falcon?, flowcache?).
REGIMES: Tuple[Tuple[str, bool, bool], ...] = (
    ("Con", False, False),
    ("Falcon", True, False),
    ("ONCache", False, True),
    ("ONC+Falcon", True, True),
)


def _bed(use_falcon: bool, use_cache: bool, capacity: int, seed: int) -> Testbed:
    return Testbed(
        mode="overlay",
        falcon=falcon_config(cpus=FALCON_CPUS) if use_falcon else None,
        flowcache=FlowCacheConfig(capacity=capacity) if use_cache else None,
        rps_cpus=RPS,
        app_cpus=APPS,
        seed=seed,
    )


def run_ramp_regime(
    use_falcon: bool,
    use_cache: bool,
    flows: int = STRESS_FLOWS,
    capacity: int = 128,
    warmup_ms: float = 12.0,
    duration_ms: float = 15.0,
    seed: int = 3,
) -> RunResult:
    """One regime under the warm-then-stress ramp workload."""
    bed = _bed(use_falcon, use_cache, capacity, seed)
    for _ in range(flows):
        schedule = HotspotSchedule(
            [(0.0, WARM_RATE_PPS), (warmup_ms * 1000.0, STRESS_RATE_PPS)]
        )
        bed.add_udp_flow(MESSAGE_SIZE, clients=1, process=schedule)
    return bed.run(warmup_ms=warmup_ms, measure_ms=duration_ms)


def run_sweep_point(
    flows: int,
    capacity: int,
    warmup_ms: float,
    duration_ms: float,
    seed: int = 0,
) -> RunResult:
    """One (flow count, capacity) point of the paced hit-rate sweep."""
    bed = _bed(False, True, capacity, seed)
    for _ in range(flows):
        bed.add_udp_flow(
            MESSAGE_SIZE, clients=1, process=ConstantRate(SWEEP_RATE_PPS)
        )
    return bed.run(warmup_ms=warmup_ms, measure_ms=duration_ms)


def run(quick: bool = False) -> ExperimentOutput:
    out = ExperimentOutput(
        "Figure 21", "Per-flow fast-path cache: regimes and flow-count sweep"
    )
    dur = durations(quick, 15.0, 12.0)

    # --- (a) four regimes under the ramp --------------------------------
    table = Table(
        ["regime", "kpps", "avg us", "p99 us", "hit rate", "fastpath frac"],
        title=(
            f"UDP {MESSAGE_SIZE} B, {STRESS_FLOWS} flows ramping "
            f"{WARM_RATE_PPS / 1e3:.0f}k -> {STRESS_RATE_PPS / 1e3:.0f}k pps/flow"
        ),
    )
    regimes: Dict[str, Dict[str, float]] = {}
    for label, use_falcon, use_cache in REGIMES:
        result = run_ramp_regime(
            use_falcon,
            use_cache,
            warmup_ms=dur["warmup_ms"],
            duration_ms=dur["duration_ms"],
        )
        delivered = max(result.messages_delivered, 1)
        fast_frac = min(result.fastpath_deliveries / delivered, 1.0)
        table.add_row(
            label,
            result.message_rate_pps / 1e3,
            result.avg_latency_us,
            result.p99_latency_us,
            result.cache_hit_rate,
            fast_frac,
        )
        regimes[label] = {
            "pps": result.message_rate_pps,
            "avg_us": result.avg_latency_us,
            "hit_rate": result.cache_hit_rate,
            "fastpath_fraction": fast_frac,
        }
    out.tables.append(table)
    out.series["regimes"] = regimes

    # --- (b) hit rate / throughput vs flows, per capacity ----------------
    flows_list = QUICK_SWEEP_FLOWS if quick else SWEEP_FLOWS
    capacities = QUICK_SWEEP_CAPACITIES if quick else SWEEP_CAPACITIES
    sweep_dur = durations(quick, 12.0, 6.0)
    for capacity in capacities:
        sweep_table = Table(
            ["flows", "kpps", "hit rate", "evictions"],
            title=(
                f"ONCache capacity {capacity}, paced "
                f"{SWEEP_RATE_PPS / 1e3:.0f}k pps/flow"
            ),
        )
        sweep: Dict[int, Dict[str, float]] = {}
        for flows in flows_list:
            result = run_sweep_point(
                flows,
                capacity,
                warmup_ms=sweep_dur["warmup_ms"],
                duration_ms=sweep_dur["duration_ms"],
            )
            sweep_table.add_row(
                flows,
                result.message_rate_pps / 1e3,
                result.cache_hit_rate,
                result.cache_evictions,
            )
            sweep[flows] = {
                "pps": result.message_rate_pps,
                "hit_rate": result.cache_hit_rate,
                "evictions": float(result.cache_evictions),
            }
        out.tables.append(sweep_table)
        out.series[("sweep", capacity)] = sweep
    return out
