"""The scenario catalogue: every named run, defined once.

Each entry maps a stable name to a frozen :class:`Scenario` — a datapath
regime, its traffic and its run length — and :func:`build` turns
``(name, seed)`` into an unrun :class:`~repro.workloads.sockperf.Testbed`
(single host) or a :class:`~repro.overlay.cluster.ClusterSpec` (a ring of
hosts on the sharded engine). The validation suites and ``repro run NAME``
read this table; a suite attaches its observer (tracer or invariant
monitor) to the built bed before ``run()``.

Golden names double as file names under ``tests/goldens``; do not rename
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple, Union

from repro.core.config import FalconConfig, FlowCacheConfig
from repro.overlay.cluster import (
    ClusterSpec,
    tcp_ring_spec,
    udp_double_ring_spec,
    udp_ring_spec,
)
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
    #: Flows on the testbed; on a cluster, rings (2 adds a stride-2 ring).
    flows: int = 1
    #: Sender threads per flow (single host).
    clients: int = 1
    #: Offered rate per flow; None saturates (UDP) or runs closed-loop (TCP).
    rate_pps: Optional[float] = None
    window_msgs: int = 16
    warmup_ms: float = 2.0
    measure_ms: float = 5.0
    #: Hosts in the ring; 0 means the single-host testbed.
    hosts: int = 0
    #: Per-flow rate of the second ring (cluster, ``flows=2``).
    rate2_pps: Optional[float] = None
    #: Ingress flow-table capacity of a cluster's cache regime.
    flowcache_capacity: int = 128
    #: Cluster container restarts, ``(time_us, host)``.
    churn: Tuple[Tuple[float, int], ...] = ()

    @property
    def cluster(self) -> bool:
        return self.hosts > 0


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
    # Cluster rings on the sharded engine (traced; goldens are pinned at
    # one shard and the shard-equivalence suite holds every count to them).
    Scenario(
        "cluster_udp_ring_vanilla", "vanilla", "udp", 512, rate_pps=40_000.0,
        hosts=4,
    ),
    Scenario(
        "cluster_udp_ring_falcon", "falcon", "udp", 512, rate_pps=40_000.0,
        hosts=4,
    ),
    Scenario("cluster_tcp_ring", "vanilla", "tcp", 4096, window_msgs=8, hosts=3),
    # Full cache lifecycle: two flows per host thrash a capacity-1 table
    # (miss, hit, evict), then churn on host 1 invalidates locally and
    # sends RECORD_INVAL to its senders.
    Scenario(
        "cluster_udp_ring_oncache_churn", "oncache", "udp", 512, flows=2,
        rate_pps=40_000.0, rate2_pps=12_000.0, hosts=3, flowcache_capacity=1,
        churn=((3500.0, 1),),
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
    "cluster_udp_ring_vanilla",
    "cluster_udp_ring_falcon",
    "cluster_tcp_ring",
    "cluster_udp_ring_oncache_churn",
)

#: Entries run under the invariant monitor to strict quiescence.
INVARIANTS: Tuple[str, ...] = (
    "udp_stress_vanilla",
    "udp_stress_falcon",
    "udp_fragmented_falcon",
    "tcp_stream_falcon_split",
    "udp_fixed_host",
)

def build(name: str, seed: int = 0) -> Union[Testbed, ClusterSpec]:
    """The unrun bed (or cluster spec) for entry ``name`` at ``seed``."""
    entry = SCENARIOS[name]
    mode, falcon, flowcache = datapath(entry.regime)
    if entry.cluster:
        return _cluster_spec(entry, seed, mode, falcon, flowcache)
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


def _cluster_spec(
    entry: Scenario,
    seed: int,
    mode: str,
    falcon: Optional[FalconConfig],
    flowcache: Optional[FlowCacheConfig],
) -> ClusterSpec:
    if mode != "overlay" or (falcon is not None and falcon.split_gro):
        raise ValueError(f"{entry.name}: regime {entry.regime!r} has no cluster form")
    common: Dict[str, Any] = dict(
        num_hosts=entry.hosts,
        message_size=entry.message_size,
        falcon=falcon is not None,
        seed=seed,
        trace=True,
        warmup_us=entry.warmup_ms * 1000.0,
        duration_us=entry.measure_ms * 1000.0,
        churn=entry.churn,
    )
    if flowcache is not None:
        common.update(flowcache=True, flowcache_capacity=entry.flowcache_capacity)
    if entry.proto == "tcp":
        return tcp_ring_spec(window_msgs=entry.window_msgs, **common)
    if entry.flows == 2:
        return udp_double_ring_spec(
            rate_pps=entry.rate_pps, rate2_pps=entry.rate2_pps, **common
        )
    return udp_ring_spec(rate_pps=entry.rate_pps, **common)
