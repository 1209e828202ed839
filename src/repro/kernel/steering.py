"""Packet steering: RSS and RPS (Section 2.1).

Both techniques hash the flow key and map the hash to a CPU, so *all*
packets of one flow go to one core — which is exactly why they cannot
parallelize a single flow (Section 3.3). RSS picks the NIC hardware queue
(and hence the hardirq core); RPS picks the core whose backlog receives
the packet after the driver stage.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.kernel.skb import Skb


class Rps:
    """Receive Packet Steering over a configured CPU set.

    >>> rps = Rps([1, 2, 3])
    >>> class _S:  # minimal skb stand-in
    ...     hash = 12345
    >>> rps.get_rps_cpu(_S(), current_cpu=0, n=1) in (1, 2, 3)
    True
    """

    def __init__(self, rps_cpus: Sequence[int]) -> None:
        if not rps_cpus:
            raise ValueError("RPS needs a non-empty CPU set")
        self.rps_cpus: List[int] = list(rps_cpus)

    def get_rps_cpu(self, skb: Skb, current_cpu: int, n: int) -> int:
        """Map ``n`` packets of ``skb``'s flow to their target by flow hash."""
        return self.rps_cpus[skb.hash % len(self.rps_cpus)]


class NoSteering:
    """Disabled RPS: processing continues on the current core."""

    def get_rps_cpu(self, skb: Skb, current_cpu: int, n: int) -> int:
        return current_cpu


class Rfs:
    """Receive Flow Steering: steer to the core the consuming app runs on.

    RFS extends RPS with a flow table recording where each flow's socket
    was last read, trading steering balance for application cache
    locality. The table is populated by the socket layer (``recvmsg``
    records the caller's CPU); flows without an entry fall back to plain
    RPS hashing.

    Included as a substrate feature and ablation axis: RFS concentrates a
    flow's *entire* softirq pipeline next to the app — the opposite of
    Falcon's pipelining — and the ablation quantifies that trade.
    """

    def __init__(self, rps_cpus: Sequence[int]) -> None:
        self._fallback = Rps(rps_cpus)
        #: flow id -> CPU the application last read that flow's socket on.
        self._flow_table: Dict[int, int] = {}
        self.hits = 0
        self.misses = 0

    def record_consumer(self, flow_id: int, cpu: int) -> None:
        """The socket layer saw the app read this flow on ``cpu``."""
        self._flow_table[flow_id] = cpu

    def get_rps_cpu(self, skb: Skb, current_cpu: int, n: int) -> int:
        target = self._flow_table.get(skb.flow.flow_id)
        if target is None:
            self.misses += n
            return self._fallback.get_rps_cpu(skb, current_cpu, n)
        self.hits += n
        return target
