"""The scenario catalogue: every named run, defined once.

Each entry maps a stable name to a frozen :class:`Scenario` — a datapath
regime, its traffic and its run length — and :func:`build` turns
``(name, seed)`` into an unrun :class:`~repro.workloads.sockperf.Testbed`.
The validation suites and ``repro run NAME`` read this table; a suite
attaches its observer (tracer or invariant monitor) to the built bed
before ``run()``.

Golden names double as file names under ``tests/goldens``; do not rename
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.config import FalconConfig, FlowCacheConfig
from repro.workloads.sockperf import Testbed

#: Regime name -> (stack mode, Falcon on, GRO split, flow cache on).
REGIMES: Dict[str, Tuple[str, bool, bool, bool]] = {
    "host": ("host", False, False, False),
    "vanilla": ("overlay", False, False, False),
    "falcon": ("overlay", True, False, False),
    "falcon_split": ("overlay", True, True, False),
    "oncache": ("overlay", False, False, True),
    "oncache_falcon": ("overlay", True, False, True),
}


def datapath(
    regime: str,
) -> Tuple[str, Optional[FalconConfig], Optional[FlowCacheConfig]]:
    """``(mode, falcon, flowcache)`` for one regime name."""
    mode, falcon, split_gro, flowcache = REGIMES[regime]
    return (
        mode,
        FalconConfig(split_gro=split_gro) if falcon else None,
        FlowCacheConfig() if flowcache else None,
    )


@dataclass(frozen=True)
class Scenario:
    """One named run: a regime, its traffic and its length."""

    name: str
    regime: str
    proto: str  # "udp" | "tcp"
    message_size: int
    #: Flows on the testbed.
    flows: int = 1
    #: Sender threads per flow.
    clients: int = 1
    #: Offered rate per flow; None saturates (UDP) or runs closed-loop (TCP).
    rate_pps: Optional[float] = None
    window_msgs: int = 16
    warmup_ms: float = 2.0
    measure_ms: float = 5.0


_ENTRIES = (
    # Golden single-host runs (traced).
    Scenario("udp_fixed_vanilla", "vanilla", "udp", 512, rate_pps=60_000.0),
    Scenario("udp_fixed_falcon", "falcon", "udp", 512, rate_pps=60_000.0),
    # The flow-cache (ONCache) datapath, paced so the ordering gate
    # opens and the traces actually take the fastpath stage.
    Scenario("udp_fixed_oncache", "oncache", "udp", 512, rate_pps=60_000.0),
    Scenario(
        "udp_fixed_oncache_falcon", "oncache_falcon", "udp", 512, rate_pps=60_000.0
    ),
    Scenario("tcp_stream_falcon_split", "falcon_split", "tcp", 4096),
    # Invariant runs: saturating, fragmented and host-mode traffic.
    Scenario(
        "udp_stress_vanilla", "vanilla", "udp", 16, clients=2,
        warmup_ms=5.0, measure_ms=10.0,
    ),
    Scenario(
        "udp_stress_falcon", "falcon", "udp", 16, clients=2,
        warmup_ms=5.0, measure_ms=10.0,
    ),
    Scenario(
        "udp_fragmented_falcon", "falcon", "udp", 4096, rate_pps=20_000.0,
        warmup_ms=5.0, measure_ms=10.0,
    ),
    Scenario(
        "udp_fixed_host", "host", "udp", 512, rate_pps=60_000.0,
        warmup_ms=5.0, measure_ms=10.0,
    ),
)

#: Every entry by name.
SCENARIOS: Dict[str, Scenario] = {entry.name: entry for entry in _ENTRIES}
assert len(SCENARIOS) == len(_ENTRIES), "scenario names must be unique"

#: Entries pinned by a trace file in ``tests/goldens``.
GOLDEN: Tuple[str, ...] = (
    "udp_fixed_vanilla",
    "udp_fixed_falcon",
    "tcp_stream_falcon_split",
    "udp_fixed_oncache",
    "udp_fixed_oncache_falcon",
)

#: Entries run under the invariant monitor to strict quiescence.
INVARIANTS: Tuple[str, ...] = (
    "udp_stress_vanilla",
    "udp_stress_falcon",
    "udp_fragmented_falcon",
    "tcp_stream_falcon_split",
    "udp_fixed_host",
)


def build(name: str, seed: int = 0) -> Testbed:
    """The unrun bed for entry ``name`` at ``seed``."""
    entry = SCENARIOS[name]
    mode, falcon, flowcache = datapath(entry.regime)
    bed = Testbed(mode=mode, falcon=falcon, flowcache=flowcache, seed=seed)
    for _ in range(entry.flows):
        if entry.proto == "udp":
            bed.add_udp_flow(
                entry.message_size, clients=entry.clients, rate_pps=entry.rate_pps
            )
        else:
            bed.add_tcp_flow(
                entry.message_size,
                window_msgs=entry.window_msgs,
                rate_pps=entry.rate_pps,
            )
    return bed
