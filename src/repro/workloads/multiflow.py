"""Multi-container and hotspot scenarios (Figures 14, 15, 16).

These build a :class:`~repro.workloads.sockperf.Testbed` with the
flow/core layouts of two of the paper's multi-flow experiments:

* **multi-container busy system** — one flow per container, the
  receiving CPUs limited to six cores that double as ``FALCON_CPUS``, so
  Falcon must scavenge idle cycles (Figure 14);
* **hotspot adaptability** — one flow suddenly triples its rate,
  comparing the two-choice balancer against static hashing (Figure 16).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from repro.core.config import FalconConfig
from repro.workloads.sockperf import RunResult, Testbed
from repro.workloads.traffic import HotspotSchedule


def run_multicontainer(
    containers: int,
    message_size: int = 1024,
    proto: str = "udp",
    falcon: Optional[FalconConfig] = None,
    receiving_cpus: Optional[List[int]] = None,
    rate_per_flow: Optional[float] = None,
    window_msgs: int = 32,
    measure_ms: float = 20.0,
    warmup_ms: float = 10.0,
    seed: int = 0,
) -> RunResult:
    """One flow per container in a busy system (Figure 14).

    The receiving CPUs are limited to six cores (the paper's setup); when
    Falcon is enabled, FALCON_CPUS is that same set, so parallelization
    must use idle cycles on unsaturated receive cores. Applications run
    on the remaining cores.
    """
    receiving = receiving_cpus or [1, 2, 3, 4, 5, 6]
    if falcon is not None:
        falcon = dataclasses.replace(falcon, cpus=list(receiving))
    bed = Testbed(
        mode="overlay",
        falcon=falcon,
        # All receive processing is confined to the receiving cores: the
        # NIC exposes one RSS queue per core (hardirqs + driver polling),
        # RPS steers within the same set, and FALCON_CPUS equals it too.
        irq_cpus=list(receiving),
        rps_cpus=list(receiving),
        app_cpus=list(range(7, 20)),
        seed=seed,
    )
    for index in range(containers):
        container = bed.new_container(f"c{index}")
        if proto == "udp":
            bed.add_udp_flow(
                message_size,
                clients=1,
                rate_pps=rate_per_flow,
                container=container,
            )
        else:
            bed.add_tcp_flow(
                message_size, window_msgs=window_msgs, container=container
            )
    return bed.run(warmup_ms=warmup_ms, measure_ms=measure_ms)


def run_hotspot(
    policy: str,
    flows: int = 4,
    message_size: int = 1024,
    base_rate: float = 120_000.0,
    burst_rate: float = 950_000.0,
    burst_clients: int = 3,
    burst_flow: int = 0,
    burst_at_ms: float = 10.0,
    measure_ms: float = 25.0,
    warmup_ms: float = 8.0,
    seed: int = 0,
) -> RunResult:
    """Adaptability test: one flow suddenly intensifies (Figure 16).

    ``policy`` is ``two_choice`` (the paper's dynamic algorithm) or
    ``static`` (first choice only). The bursting flow is driven by
    several clients (like the paper's stress setup) so its per-device
    softirq stages genuinely overload the core they hash to; the dynamic
    policy steers softirqs away from the hot core, the static one cannot.
    """
    falcon = FalconConfig(cpus=[3, 4, 5, 6], policy=policy)
    bed = Testbed(
        mode="overlay",
        falcon=falcon,
        rps_cpus=[1, 2],
        app_cpus=list(range(10, 16)),
        seed=seed,
    )
    for index in range(flows):
        if index == burst_flow:
            schedule = HotspotSchedule(
                [
                    (0.0, base_rate / burst_clients),
                    (burst_at_ms * 1000.0, burst_rate / burst_clients),
                ]
            )
            bed.add_udp_flow(
                message_size, clients=burst_clients, process=schedule
            )
        else:
            bed.add_udp_flow(message_size, clients=1, rate_pps=base_rate)
    return bed.run(warmup_ms=warmup_ms, measure_ms=measure_ms)
