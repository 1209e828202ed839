"""Property tests for the sharded engine's sync and merge discipline.

Two families:

* **Merge order** — ``merge_records`` imposes a total, deterministic
  ``(time, src, seq)`` order: permutation-invariant, duplicate-free by
  key construction, stable under re-merge.
* **Barrier safety** — driving a :class:`ShardCoordinator` over randomly
  generated toy shard programs, no record is ever delivered to its
  destination before the barrier of the window that produced it, and the
  whole exchange is partition-invariant: K shards deliver exactly what
  one shard delivers, in the same order.

A relay test adds liveness: a shard whose only work is a record routed
to it still runs that record.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from repro.sim.shard.coordinator import InlineShardHandle, ShardCoordinator
from repro.sim.shard.records import CrossShardEvent, merge_records

# ----------------------------------------------------------------------
# merge_records
# ----------------------------------------------------------------------
record_strategy = st.builds(
    CrossShardEvent,
    time=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    src=st.integers(min_value=0, max_value=7),
    seq=st.integers(min_value=0, max_value=10_000),
    kind=st.sampled_from(["skb", "credit"]),
    dst=st.integers(min_value=0, max_value=7),
    payload=st.tuples(st.integers(min_value=0, max_value=99)),
)


@given(st.lists(record_strategy, max_size=50), st.randoms())
def test_merge_is_permutation_invariant(records, rng):
    """Any arrival order of the same records merges identically."""
    shuffled = list(records)
    rng.shuffle(shuffled)
    assert [r.sort_key for r in merge_records(records)] == [
        r.sort_key for r in merge_records(shuffled)
    ]


@given(st.lists(record_strategy, max_size=50))
def test_merge_orders_by_time_src_seq(records):
    merged = merge_records(records)
    keys = [r.sort_key for r in merged]
    assert keys == sorted(keys)
    assert len(merged) == len(records)


@given(st.lists(record_strategy, max_size=50))
def test_merge_is_idempotent(records):
    once = merge_records(records)
    assert [r.sort_key for r in merge_records(once)] == [
        r.sort_key for r in once
    ]


def test_merge_key_is_total_for_distinct_source_seqs():
    """(src, seq) pairs are unique by construction (per-source counters),
    so equal-time records still have one deterministic order."""
    records = [
        CrossShardEvent(10.0, src, seq, "skb", 0, ())
        for src in range(4)
        for seq in range(4)
    ]
    keys = [r.sort_key for r in merge_records(records)]
    assert len(set(keys)) == len(keys)


# ----------------------------------------------------------------------
# Barrier safety on toy shard programs
# ----------------------------------------------------------------------
class PingProgram:
    """A toy shard: each host periodically sends a record to a peer,
    which is delivered ``LATENCY`` after the send — the same contract
    the overlay cluster's links obey. Every delivery is appended to a
    log with the simulated delivery time, which the properties inspect.
    """

    LATENCY = 5.0

    def __init__(self, hosts, all_hosts, seed, period_by_host):
        self._hosts = tuple(hosts)
        self._sim = Simulator()
        self._seqs = {h: 0 for h in hosts}
        self._out = []
        self.delivered = []  # (delivery_time, src, seq, dst)
        for host in hosts:
            peer = all_hosts[(all_hosts.index(host) + 1) % len(all_hosts)]
            period = period_by_host[host]
            # Per-host seed derivation (the cluster's idiom): a host's
            # randomness must not depend on which shard builds it.
            rng = random.Random(seed * 1_000_003 + host)
            self._sim.schedule_at(
                rng.random() * period, self._tick, host, peer, period
            )

    def _tick(self, host, peer, period):
        seq = self._seqs[host]
        self._seqs[host] = seq + 1
        self._out.append(
            CrossShardEvent(
                self._sim.now + self.LATENCY, host, seq, "ping", peer, ()
            )
        )
        self._sim.schedule_at(self._sim.now + period, self._tick, host, peer, period)

    # -- ShardProgram ---------------------------------------------------
    def next_time(self):
        return self._sim.peek_time()

    def advance(self, bound, inclusive=False):
        if inclusive:
            self._sim.run(until=bound)
        else:
            while True:
                t = self._sim.peek_time()
                if t is None or t >= bound:
                    break
                self._sim.run(until=t)
        out, self._out = self._out, []
        return out

    def inject(self, records):
        for record in records:
            self._sim.schedule_at(
                record.time,
                self.delivered.append,
                (record.time, record.src, record.seq, record.dst),
            )

    def hosts(self):
        return self._hosts

    def finalize(self):
        return {"delivered": list(self.delivered)}


def _drive(num_hosts, shards, seed, periods, until=200.0):
    """Partition ``num_hosts`` ping hosts over ``shards`` coordinators."""
    all_hosts = list(range(num_hosts))
    groups = [all_hosts[i::shards] for i in range(shards)]
    groups = [g for g in groups if g]
    handles = [
        InlineShardHandle(PingProgram(group, all_hosts, seed, periods))
        for group in groups
    ]
    coordinator = ShardCoordinator(
        handles, lookahead_us=PingProgram.LATENCY, record_windows=True
    )
    coordinator.run(until=until)
    results = coordinator.finalize()
    delivered = []
    for doc in results:
        delivered.extend(tuple(d) for d in doc["delivered"])
    return coordinator, sorted(delivered)


toy_setup = st.tuples(
    st.integers(min_value=2, max_value=5),            # hosts
    st.integers(min_value=0, max_value=2**16),        # seed
    st.lists(
        st.floats(min_value=1.0, max_value=30.0, allow_nan=False),
        min_size=5, max_size=5,                       # per-host periods
    ),
)


@settings(deadline=None, max_examples=30)
@given(toy_setup, st.integers(min_value=2, max_value=4))
def test_records_never_undercut_their_barrier(setup, shards):
    """No record routed out of a window may land before that window's
    barrier — the coordinator's causality check, exercised end to end."""
    num_hosts, seed, period_list = setup
    periods = dict(enumerate(period_list))
    coordinator, _ = _drive(num_hosts, min(shards, num_hosts), seed, periods)
    assert coordinator.window_log, "run produced no windows"
    for window_end, routed_keys in coordinator.window_log[:-1]:
        for time, _src, _seq in routed_keys:
            assert time >= window_end, (
                f"record at t={time} undercuts its window barrier "
                f"t={window_end}"
            )
    # Barriers themselves advance monotonically (final inclusive step
    # excepted — it closes at `until`, inside the last lookahead).
    ends = [end for end, _ in coordinator.window_log[:-1]]
    assert ends == sorted(ends)


@settings(deadline=None, max_examples=30)
@given(toy_setup, st.integers(min_value=2, max_value=4))
def test_toy_partition_invariance(setup, shards):
    """K toy shards deliver exactly the 1-shard deliveries."""
    num_hosts, seed, period_list = setup
    periods = dict(enumerate(period_list))
    _, reference = _drive(num_hosts, 1, seed, periods)
    _, actual = _drive(num_hosts, min(shards, num_hosts), seed, periods)
    assert actual == reference
    assert reference, "scenario delivered nothing — vacuous equivalence"


class RelayProgram(PingProgram):
    """A toy shard whose hosts act only on what they receive: one token
    travels the ring, one ``LATENCY`` per hop. Between hops every shard
    is idle, so the run goes on only if the coordinator counts a routed,
    not yet delivered record as its destination's next event."""

    def __init__(self, hosts, all_hosts):
        self._hosts = tuple(hosts)
        self._all_hosts = list(all_hosts)
        self._sim = Simulator()
        self._seqs = {h: 0 for h in hosts}
        self._out = []
        self.delivered = []  # (delivery_time, host)
        if all_hosts[0] in self._hosts:
            self._sim.schedule_at(0.0, self._send, all_hosts[0])

    def _send(self, host):
        ring = self._all_hosts
        peer = ring[(ring.index(host) + 1) % len(ring)]
        seq = self._seqs[host]
        self._seqs[host] = seq + 1
        self._out.append(
            CrossShardEvent(self._sim.now + self.LATENCY, host, seq, "token", peer, ())
        )

    def _receive(self, host):
        self.delivered.append((self._sim.now, host))
        self._send(host)

    def inject(self, records):
        for record in records:
            self._sim.schedule_at(record.time, self._receive, record.dst)


@pytest.mark.parametrize("shards", [1, 2, 3])
def test_token_woken_shards_keep_running(shards):
    all_hosts = [0, 1, 2]
    handles = [
        InlineShardHandle(RelayProgram(all_hosts[i::shards], all_hosts))
        for i in range(shards)
    ]
    coordinator = ShardCoordinator(handles, lookahead_us=RelayProgram.LATENCY)
    coordinator.run(until=50.0)
    delivered = sorted(
        hop for doc in coordinator.finalize() for hop in doc["delivered"]
    )
    hops = range(1, 11)
    assert delivered == [(RelayProgram.LATENCY * k, k % 3) for k in hops]
