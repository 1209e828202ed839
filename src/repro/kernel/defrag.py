"""IP fragment reassembly (``ip_defrag``).

UDP messages larger than the path MTU arrive as IP fragments; the IP
layer holds them until the set is complete, then hands one reassembled
datagram to ``udp_rcv``. Unlike GRO (an opportunistic driver-level
optimization), defragmentation is mandatory and happens in whichever
stack instance owns the destination IP — for overlay traffic, that is the
*container's* stack, so every fragment rides all three overlay softirq
stages before reassembly. That asymmetry is part of why the overlay's
per-packet overhead hits large UDP messages too (Figure 2a).

Incomplete messages (a fragment was dropped upstream) are garbage
collected after a timeout, mirroring the kernel's ipfrag timer, and
counted as ``defrag_timeouts``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.kernel.skb import Skb
from repro.sim.engine import Simulator


class DefragEngine:
    """Reassembly table for one network namespace."""

    def __init__(self, sim: Simulator, timeout_us: float = 100_000.0) -> None:
        self.sim = sim
        self.timeout_us = timeout_us
        # (flow_id, msg_id) -> (first skb, fragments seen, bytes, deadline)
        self._table: Dict[Tuple[int, int], List] = {}
        self.reassembled = 0
        self.defrag_timeouts = 0
        self._gc_scheduled = False
        #: Optional :class:`repro.validate.InvariantMonitor` hook.
        self.monitor = None
        #: The stack's :class:`repro.kernel.flowcache.FlowCache` (or None);
        #: expired reassemblies must settle their slow-path reservations.
        self.flowcache = None

    def feed(self, skb: Skb, _cpu_index: int = 0) -> Optional[Skb]:
        """Offer a fragment; returns the reassembled datagram when complete.

        TCP passes straight through: its segments are GRO-merged earlier
        or accumulate at the socket.
        """
        if skb.is_tcp or skb.frag_count == 1:
            return skb  # TCP, or not fragmented
        key = (skb.flow.flow_id, skb.msg_id)
        entry = self._table.get(key)
        if entry is None:
            entry = [skb, 0, 0, self.sim.now + self.timeout_us]
            self._table[key] = entry
            self._schedule_gc()
        head = entry[0]
        entry[1] += 1
        entry[2] += skb.size
        if head is not skb and skb.fastpath is not None:
            # Reassembled datagrams may mix datapaths (fast fragments
            # merging with slow ones): the head accumulates the fast
            # count so exit hooks release exactly the slow reservations.
            head.fastpath = (head.fastpath or 0) + skb.fastpath
        if entry[1] < skb.frag_count:
            return None
        # Complete: emit one datagram carrying the whole message.
        del self._table[key]
        head.size = entry[2]
        head.segs = skb.frag_count
        head.frag_count = 1
        head.frag_index = 0
        self.reassembled += 1
        return head

    # ------------------------------------------------------------------
    # Garbage collection of incomplete messages
    # ------------------------------------------------------------------
    def _schedule_gc(self) -> None:
        if not self._gc_scheduled:
            self._gc_scheduled = True
            self.sim.schedule(self.timeout_us, self._gc)

    def _gc(self) -> None:
        self._gc_scheduled = False
        now = self.sim.now
        expired = [key for key, entry in self._table.items() if entry[3] <= now]
        for key in expired:
            entry = self._table.pop(key)
            self.defrag_timeouts += 1
            if self.flowcache is not None:
                self.flowcache.defrag_expired(entry[0], entry[1])
            if self.monitor is not None:
                # entry[1] wire packets leave the pipeline with the entry.
                self.monitor.on_defrag_timeout(entry[1])
        if self._table:
            self._schedule_gc()

    @property
    def pending(self) -> int:
        return len(self._table)

    @property
    def pending_packets(self) -> int:
        """Wire packets (fragments) held by incomplete reassemblies."""
        return sum(entry[1] for entry in self._table.values())
