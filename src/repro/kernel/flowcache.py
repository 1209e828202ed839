"""ONCache-style per-flow fast-path cache (the third datapath).

After the first packet of a flow has traversed the full overlay device
chain (``hoststack_outer`` decap → ``gro_cell_poll`` / ``br_handle_frame``
/ ``veth_xmit`` → container ``netif_rx``), everything that chain computes
— the decap verdict, the bridge FDB result, the veth peer — is flow-
invariant. ONCache memoizes it: a per-flow table consulted at the driver
exit sends subsequent packets straight to the container's protocol tail
through one cheap :data:`~repro.kernel.costs.CostModel.flowcache_fastpath`
step, skipping two whole softirq stages and one backlog hop.

Cache misses (first packet, capacity eviction, explicit invalidation on
container churn) take the slow path unchanged and (re)populate the entry
when the packet completes delivery.

Ordering gate
-------------
A naive cache would let packet *n+1* (hit, two stages skipped) overtake
packet *n* (miss, still riding the device chain) of the same flow — a
reordering vanilla Linux never produces. The table therefore tracks a
per-flow *slow in-flight* count: a hit is only granted while no earlier
packet of the flow is still on the slow path. ``Skb.fastpath`` carries
the per-packet verdict (``None`` = not yet checked, ``0`` = slow, > 0 =
wire segments that took the fast path) so every pipeline exit —
delivery, backlog drop, defrag timeout — can release exactly the slow
reservations it retires.

The gate's typestate is enforced statically by ``repro check``
(ORD521-523): :meth:`FlowTable.access`, :meth:`FlowTable.insert`,
:meth:`FlowTable.hit_or_populate` and :meth:`FlowCache.delivered` are
the *sanctioned* surface — the only places allowed to populate entries
or serve a receive-side hit, precisely because they consult/maintain
``_slow_inflight`` (or, for the TX table, are serialized per flow).
Adding a population or lookup path elsewhere trips the analyzer.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from repro.core.config import FlowCacheConfig
from repro.kernel.costs import CostModel, VXLAN_OVERHEAD
from repro.kernel.skb import FlowKey, Skb
from repro.kernel.stages import Step

#: A flow-table key: the 5-tuple (``FlowKey.tuple()``).
TableKey = Tuple[int, int, int, int, int]


class FlowTable:
    """One direction's flow table: a deterministic LRU over 5-tuples.

    Backed by an :class:`~collections.OrderedDict` — eviction order is a
    pure function of the access sequence, never of hashes or ids, so
    sharded runs stay byte-identical.
    """

    __slots__ = (
        "capacity",
        "_entries",
        "_slow_inflight",
        "hits",
        "misses",
        "evictions",
        "invalidations",
        "inserts",
        "_san",
    )

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: "OrderedDict[TableKey, int]" = OrderedDict()
        #: Per-flow count of wire segments still riding the slow path.
        self._slow_inflight: Dict[TableKey, int] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.inserts = 0
        #: Ownership ledger hook (REPRO_SANITIZE=1); None in normal runs.
        self._san: Optional[Any] = None
        if os.environ.get("REPRO_SANITIZE"):
            from repro.validate.sanitize import current_ledger

            self._san = current_ledger()

    # ------------------------------------------------------------------
    # Datapath decisions
    # ------------------------------------------------------------------
    def access(self, key: TableKey, segs: int) -> bool:
        """Receive-side decision for one packet of ``segs`` wire segments.

        True grants the fast path (and refreshes the entry's LRU
        position); False sends the packet down the slow path and reserves
        its segments as slow in-flight until an exit hook releases them.
        """
        if key in self._entries and not self._slow_inflight.get(key):
            self._entries.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        self._slow_inflight[key] = self._slow_inflight.get(key, 0) + segs
        return False

    def hit_or_populate(self, key: TableKey) -> bool:
        """Transmit-side decision: the sender is serialized per flow, so
        a miss populates immediately (no ordering gate needed)."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        self.insert(key)
        return False

    # ------------------------------------------------------------------
    # Population and teardown
    # ------------------------------------------------------------------
    def insert(self, key: TableKey) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
            return
        self.inserts += 1
        self._entries[key] = 1
        if self._san is not None:
            self._san.acquire("flow_entry", (id(self), key), "flowtable.insert")
        while len(self._entries) > self.capacity:
            evicted, _ = self._entries.popitem(last=False)
            self.evictions += 1
            if self._san is not None:
                self._san.release(
                    "flow_entry", (id(self), evicted), "flowtable.evict"
                )

    def slow_done(self, key: TableKey, segs: int) -> None:
        """Release ``segs`` slow-path reservations for ``key``."""
        left = self._slow_inflight.get(key)
        if left is None:
            return
        left -= segs
        if left <= 0:
            del self._slow_inflight[key]
        else:
            self._slow_inflight[key] = left

    def invalidate(self, key: TableKey) -> bool:
        if self._entries.pop(key, None) is not None:
            self.invalidations += 1
            if self._san is not None:
                self._san.release(
                    "flow_entry", (id(self), key), "flowtable.invalidate"
                )
            return True
        return False

    def invalidate_ip(self, ip: int) -> int:
        """Drop every entry whose flow involves ``ip`` (container churn)."""
        stale = [key for key in self._entries if ip in (key[0], key[1])]
        for key in stale:
            del self._entries[key]
            if self._san is not None:
                self._san.release(
                    "flow_entry", (id(self), key), "flowtable.invalidate_ip"
                )
        self.invalidations += len(stale)
        return len(stale)

    def invalidate_all(self) -> int:
        count = len(self._entries)
        if self._san is not None:
            for key in self._entries:
                self._san.release(
                    "flow_entry", (id(self), key), "flowtable.invalidate_all"
                )
        self._entries.clear()
        self.invalidations += count
        return count

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __contains__(self, key: TableKey) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> list:
        """Current entries, LRU-oldest first (deterministic)."""
        return list(self._entries)

    def slow_inflight(self, key: TableKey) -> int:
        return self._slow_inflight.get(key, 0)


class FlowCache:
    """The per-host cache: one ingress and one egress :class:`FlowTable`."""

    def __init__(self, config: FlowCacheConfig) -> None:
        config.validate()
        self.config = config
        self.ingress = FlowTable(config.capacity)
        self.egress = FlowTable(config.capacity)

    # ------------------------------------------------------------------
    # Datapath entry points
    # ------------------------------------------------------------------
    def access_rx(self, skb: Skb) -> bool:
        """The driver-exit check; stamps ``skb.fastpath`` with the verdict."""
        hit = self.ingress.access(skb.flow.tuple(), skb.segs)
        skb.fastpath = skb.segs if hit else 0
        return hit

    def access_tx(self, flow: FlowKey) -> bool:
        """Sender-side check, per application message."""
        return self.egress.hit_or_populate(flow.tuple())

    # ------------------------------------------------------------------
    # Exit hooks (keep the ordering gate's ledger exact)
    # ------------------------------------------------------------------
    def packet_terminated(self, skb: Skb) -> None:
        """``skb`` left the pipeline (delivered, dropped, unroutable):
        release whatever slow-path reservations it still holds."""
        fast = skb.fastpath
        if fast is None:
            return  # terminated before the cache check (e.g. ring drop)
        slow = skb.segs - fast
        if slow > 0:
            self.ingress.slow_done(skb.flow.tuple(), slow)

    def delivered(self, skb: Skb) -> None:
        """Successful socket delivery: a slow traversal (re)populates."""
        if skb.fastpath is not None and skb.fastpath < skb.segs:
            self.ingress.insert(skb.flow.tuple())

    def defrag_expired(self, head: Skb, npackets: int) -> None:
        """A reassembly entry timed out holding ``npackets`` fragments."""
        if head.fastpath is None:
            return
        slow = npackets - head.fastpath
        if slow > 0:
            self.ingress.slow_done(head.flow.tuple(), slow)

    # ------------------------------------------------------------------
    # Invalidation (container stop / migration, FDB aging)
    # ------------------------------------------------------------------
    def invalidate_flow(self, flow: FlowKey) -> int:
        key = flow.tuple()
        return int(self.ingress.invalidate(key)) + int(self.egress.invalidate(key))

    def invalidate_ip(self, ip: int) -> int:
        return self.ingress.invalidate_ip(ip) + self.egress.invalidate_ip(ip)

    def invalidate_all(self) -> int:
        return self.ingress.invalidate_all() + self.egress.invalidate_all()

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for label, table in (("ingress", self.ingress), ("egress", self.egress)):
            out[f"{label}_hits"] = table.hits
            out[f"{label}_misses"] = table.misses
            out[f"{label}_evictions"] = table.evictions
            out[f"{label}_invalidations"] = table.invalidations
            out[f"{label}_inserts"] = table.inserts
        return out

    def hit_rate(self) -> float:
        """Ingress hit fraction over the whole run."""
        total = self.ingress.hits + self.ingress.misses
        return self.ingress.hits / total if total else 0.0


def fastpath_step(costs: CostModel) -> Step:
    """The single step a cache hit executes in place of the device chain:
    flow-table lookup plus the cached header rewrite (incl. decap)."""

    def effect(skb: Skb, _cpu_index: int) -> Optional[Skb]:
        if skb.encapsulated:
            skb.decapsulate(VXLAN_OVERHEAD)
        return skb

    return Step.simple("flowcache_fastpath", costs.flowcache_fastpath, effect)
