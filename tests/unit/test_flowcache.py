"""Unit tests for the per-flow fast-path cache (repro.kernel.flowcache).

Three contracts pinned here:

* the LRU is deterministic — eviction order is a pure function of the
  access sequence (OrderedDict semantics, never hash order);
* the counters are exact — hits/misses/evictions/invalidations/inserts
  match a hand-computed trace, packet by packet;
* the ordering gate never grants a hit while the flow has slow-path
  packets in flight, and releases reservations exactly once.
"""

import pytest

from repro.core.config import FlowCacheConfig
from repro.kernel.flowcache import FlowCache, FlowTable
from repro.kernel.skb import FlowKey, Skb


def key(n):
    """A distinct 5-tuple per small integer (src ip varies)."""
    return (100 + n, 200, 17, 5000 + n, 53)


def flow(n):
    return FlowKey(
        src_ip=100 + n, dst_ip=200, proto=17, sport=5000 + n, dport=53, flow_id=n
    )


# ----------------------------------------------------------------------
# LRU determinism
# ----------------------------------------------------------------------
def test_lru_evicts_in_insertion_order():
    table = FlowTable(capacity=3)
    for n in range(3):
        table.insert(key(n))
    assert table.keys() == [key(0), key(1), key(2)]
    table.insert(key(3))  # evicts the oldest: key(0)
    assert table.keys() == [key(1), key(2), key(3)]
    assert table.evictions == 1
    assert key(0) not in table


def test_lru_hit_refreshes_position():
    table = FlowTable(capacity=2)
    table.insert(key(0))
    table.insert(key(1))
    assert table.access(key(0), segs=1)  # key(0) becomes most-recent
    table.insert(key(2))  # must evict key(1), not key(0)
    assert table.keys() == [key(0), key(2)]


def test_lru_reinsert_refreshes_not_duplicates():
    table = FlowTable(capacity=2)
    table.insert(key(0))
    table.insert(key(1))
    table.insert(key(0))  # refresh, no new insert counted
    assert table.inserts == 2
    assert len(table) == 2
    table.insert(key(2))  # evicts key(1)
    assert table.keys() == [key(0), key(2)]


def test_lru_is_deterministic_across_runs():
    """Same op sequence -> byte-identical table state and counters."""

    def run():
        table = FlowTable(capacity=4)
        for n in (0, 1, 2, 3, 1, 4, 0, 5, 2, 6):
            if not table.access(key(n), segs=1):
                table.slow_done(key(n), 1)
                table.insert(key(n))
        return table.keys(), (
            table.hits, table.misses, table.evictions, table.inserts
        )

    assert run() == run()


# ----------------------------------------------------------------------
# Hand-computed counter trace
# ----------------------------------------------------------------------
def test_counters_match_hand_computed_trace():
    """Capacity 2, three flows A/B/C, one segment per packet.

    trace (rx side)                 | verdict | table after (LRU->MRU)
    --------------------------------|---------|-----------------------
    A arrives (cold)                | miss    | []
    A delivered -> insert A         |         | [A]
    A arrives                       | hit     | [A]
    B arrives (cold)                | miss    | [A]
    B delivered -> insert B         |         | [A, B]
    C arrives (cold)                | miss    | [A, B]
    C delivered -> insert C, evict A| evict   | [B, C]
    A arrives (evicted)             | miss    | [B, C]
    B arrives                       | hit     | [C, B]
    """
    table = FlowTable(capacity=2)
    a, b, c = key(0), key(1), key(2)

    assert not table.access(a, 1)
    table.slow_done(a, 1)
    table.insert(a)
    assert table.access(a, 1)
    assert not table.access(b, 1)
    table.slow_done(b, 1)
    table.insert(b)
    assert not table.access(c, 1)
    table.slow_done(c, 1)
    table.insert(c)
    assert not table.access(a, 1)  # A was evicted by C's insert
    table.slow_done(a, 1)
    assert table.access(b, 1)

    assert table.hits == 2
    assert table.misses == 4
    assert table.evictions == 1
    assert table.inserts == 3
    assert table.invalidations == 0
    assert table.keys() == [c, b]


def test_cache_hit_rate_is_exact():
    cache = FlowCache(FlowCacheConfig(capacity=4))
    f = flow(0)
    # 1 miss then 3 hits -> hit rate exactly 3/4.
    for i in range(4):
        skb = Skb(f, size=512)
        hit = cache.access_rx(skb)
        assert hit == (i > 0)
        if not hit:
            cache.packet_terminated(skb)
            cache.delivered(skb)
    assert cache.hit_rate() == pytest.approx(0.75)
    counters = cache.counters()
    assert counters["ingress_hits"] == 3
    assert counters["ingress_misses"] == 1
    assert counters["ingress_inserts"] == 1


# ----------------------------------------------------------------------
# Ordering gate
# ----------------------------------------------------------------------
def test_gate_blocks_hits_while_slow_packets_in_flight():
    table = FlowTable(capacity=4)
    k = key(0)
    assert not table.access(k, segs=1)  # cold miss reserves 1 slow seg
    table.insert(k)  # entry goes live (delivery of packet 0)...
    # ...but packet 0's reservation is still held: no hit yet.
    assert table.slow_inflight(k) == 1
    assert not table.access(k, segs=1)
    assert table.slow_inflight(k) == 2
    table.slow_done(k, 2)
    assert table.slow_inflight(k) == 0
    assert table.access(k, segs=1)


def test_gate_releases_are_per_segment():
    table = FlowTable(capacity=4)
    k = key(0)
    assert not table.access(k, segs=3)  # a GRO-merged super-packet
    table.insert(k)
    table.slow_done(k, 2)
    assert table.slow_inflight(k) == 1
    assert not table.access(k, segs=1)  # partial release: still gated
    table.slow_done(k, 2)  # 1 (remaining) + 1 (the gated miss above)
    assert table.access(k, segs=1)


def test_packet_terminated_releases_only_slow_segments():
    cache = FlowCache(FlowCacheConfig(capacity=4))
    f = flow(0)
    skb = Skb(f, size=512)
    assert not cache.access_rx(skb)
    assert skb.fastpath == 0
    assert cache.ingress.slow_inflight(f.tuple()) == 1
    cache.packet_terminated(skb)
    assert cache.ingress.slow_inflight(f.tuple()) == 0
    # A second termination (or one for an unchecked skb) must not
    # underflow another flow's ledger.
    fresh = Skb(f, size=512)
    assert fresh.fastpath is None
    cache.packet_terminated(fresh)
    assert cache.ingress.slow_inflight(f.tuple()) == 0


# ----------------------------------------------------------------------
# Invalidation
# ----------------------------------------------------------------------
def test_invalidate_flow_and_missing_key():
    cache = FlowCache(FlowCacheConfig(capacity=4))
    f = flow(0)
    cache.ingress.insert(f.tuple())
    cache.egress.insert(f.tuple())
    assert cache.invalidate_flow(f) == 2
    assert cache.invalidate_flow(f) == 0  # already gone: not recounted
    assert cache.counters()["ingress_invalidations"] == 1
    assert cache.counters()["egress_invalidations"] == 1


def test_invalidate_ip_drops_both_directions_of_that_ip_only():
    table = FlowTable(capacity=8)
    victim = 42
    table.insert((victim, 200, 17, 1, 2))  # victim as src
    table.insert((100, victim, 17, 3, 4))  # victim as dst
    table.insert(key(7))  # unrelated
    assert table.invalidate_ip(victim) == 2
    assert table.keys() == [key(7)]
    assert table.invalidations == 2


def test_invalidate_all_counts_everything():
    table = FlowTable(capacity=8)
    for n in range(5):
        table.insert(key(n))
    assert table.invalidate_all() == 5
    assert len(table) == 0
    assert table.invalidations == 5


def test_egress_populates_on_miss_without_gate():
    """The sender is serialized per flow: tx misses insert immediately."""
    table = FlowTable(capacity=2)
    assert not table.hit_or_populate(key(0))
    assert table.hit_or_populate(key(0))
    assert table.slow_inflight(key(0)) == 0
    assert table.hits == 1 and table.misses == 1 and table.inserts == 1
