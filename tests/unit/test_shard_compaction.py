"""Compaction vs the shard window loop: peek, inject, cancel, advance.

The shard advance loop leaves a ``peek_time`` probe outstanding while
the coordinator computes the barrier, then injects cross-shard records
(``schedule_at``) that can land *earlier* than the peeked event, then runs
to the bound — and any event fired inside the window may cancel timers
and trip a compaction pass (lazy-cancel rebuild). These tests pin down
that the combination cannot reorder or drop pending injections:

* a peeked head must survive an earlier insertion and a full
  compaction rebuild;
* events scheduled from inside callbacks must stay well-ordered
  through cancel churn;
* at the coordinator level, a cancel-churn workload compacting mid-
  window must stay partition-invariant.
"""

import repro.sim.engine as engine_module
from repro.sim.engine import Simulator
from repro.sim.shard.coordinator import InlineShardHandle, ShardCoordinator
from repro.sim.shard.records import CrossShardEvent


def test_peek_then_earlier_injection_then_compaction(monkeypatch):
    """The exact shard-loop shape: peek_time (lazy-pops to the live
    head), inject earlier cross-shard arrivals, cancel-churn past the
    compaction threshold, then advance. Every injection must fire, in
    timestamp order, before any local event."""
    monkeypatch.setattr(engine_module, "COMPACT_MIN_EVENTS", 8)
    sim = Simulator()
    fired = []
    for i in range(20):
        sim.schedule(50.0 + i, fired.append, ("local", i))
    # Coordinator-side probe: computes the window, caches the head.
    assert sim.peek_time() == 50.0
    # Cross-shard records land before the local work (but >= now).
    for i in range(10):
        sim.schedule_at(5.0 + i, fired.append, ("remote", i))
    # Cancel churn while the window is open — with the threshold at 8
    # this forces at least one compaction rebuild.
    handles = [
        sim.schedule(200.0 + i, sim.schedule, 0.0, fired.append, ("timer", i))
        for i in range(40)
    ]
    for handle in handles[:35]:
        sim.cancel(handle)
    # Advance to the barrier: only the injected records lie below it.
    sim.run(until=40.0)
    assert fired == [("remote", i) for i in range(10)]
    # Drain: locals then surviving timers, nothing lost or reordered.
    sim.run()
    assert fired[10:30] == [("local", i) for i in range(20)]
    assert fired[30:] == [("timer", i) for i in range(35, 40)]


def test_compaction_cannot_resurrect_or_drop(monkeypatch):
    """Randomized churn cross-checked against a straight reference list:
    cancellations interleaved with peeks (cache invalidation points) and
    forced compactions must fire exactly the live set, in (time, seq)
    order. Catches both drops and zombie (cancelled-but-fired) events."""
    import random

    monkeypatch.setattr(engine_module, "COMPACT_MIN_EVENTS", 16)
    rng = random.Random(1)
    sim = Simulator()
    fired = []
    expected = []
    handles = {}
    for i in range(400):
        t = rng.random() * 1000.0
        handles[i] = (t, sim.schedule(t, fired.append, i))
    cancelled = set()
    for i in rng.sample(sorted(handles), 300):
        sim.cancel(handles[i][1])
        cancelled.add(i)
        if rng.random() < 0.2:
            sim.peek_time()  # interleave probes with churn
    expected = [i for i in sorted(
        (t, i) for i, (t, _h) in handles.items() if i not in cancelled
    )]
    sim.run()
    assert fired == [i for _t, i in sorted(
        (handles[i][0], i) for i in handles if i not in cancelled
    )]


def test_rescheduled_waves_survive_cancel_churn(monkeypatch):
    """Callbacks that schedule the next wave while cancel churn keeps
    compacting the queue — the shape of the cross-shard inject path —
    must fire every wave in order and keep cancelled timers dead."""
    monkeypatch.setattr(engine_module, "COMPACT_MIN_EVENTS", 8)
    sim = Simulator()
    fired = []
    def wave(round_index):
        if round_index >= 30:
            return
        # Each wave schedules deliveries plus cancellable timers, most
        # of which die -> compaction.
        for i in range(8):
            sim.schedule_at(sim.now + 1.0 + i * 0.1, fired.append,
                            (round_index, i))
        doomed = [sim.schedule(500.0 + i, fired.append, "never")
                  for i in range(12)]
        for handle in doomed[:11]:
            sim.cancel(handle)
        sim.schedule_at(sim.now + 2.0, wave, round_index + 1)
    sim.schedule_at(0.0, wave, 0)
    sim.run(until=100.0)
    by_round = [entry for entry in fired if isinstance(entry, tuple)]
    assert by_round == sorted(by_round)
    assert len(by_round) == 30 * 8
    assert "never" not in fired  # cancelled timers stayed dead
    sim.run()
    assert fired.count("never") == 30  # exactly the survivors


class ChurnProgram:
    """Toy shard whose every tick schedules a burst of timers and
    cancels most — compaction runs constantly, mid-window, while
    cross-shard pings are in flight."""

    LATENCY = 4.0

    def __init__(self, hosts, all_hosts):
        self._hosts = tuple(hosts)
        self._sim = Simulator()
        self._seqs = {h: 0 for h in hosts}
        self._out = []
        self.delivered = []
        for host in hosts:
            peer = all_hosts[(all_hosts.index(host) + 1) % len(all_hosts)]
            self._sim.schedule_at(1.0 + host * 0.25, self._tick, host, peer)

    def _tick(self, host, peer):
        seq = self._seqs[host]
        self._seqs[host] = seq + 1
        self._out.append(CrossShardEvent(
            self._sim.now + self.LATENCY, host, seq, "ping", peer, ()))
        doomed = [self._sim.schedule(300.0 + i, self._noop) for i in range(10)]
        for handle in doomed[:9]:
            self._sim.cancel(handle)
        self._sim.schedule_at(self._sim.now + 3.0, self._tick, host, peer)

    @staticmethod
    def _noop():
        return None

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
                record.time, self.delivered.append,
                (record.time, record.src, record.seq))

    def hosts(self):
        return self._hosts

    def finalize(self):
        return {"delivered": list(self.delivered)}


def test_churn_cluster_is_partition_invariant(monkeypatch):
    """End to end: compaction passes inside open barrier windows must
    not change what crosses shards, when, or in what order."""
    monkeypatch.setattr(engine_module, "COMPACT_MIN_EVENTS", 8)
    all_hosts = list(range(4))

    def drive(shards):
        groups = [g for g in (all_hosts[i::shards] for i in range(shards)) if g]
        handles = [
            InlineShardHandle(ChurnProgram(group, all_hosts)) for group in groups
        ]
        coordinator = ShardCoordinator(handles, ChurnProgram.LATENCY)
        coordinator.run(until=120.0)
        results = coordinator.finalize()
        delivered = []
        for doc in results:
            delivered.extend(tuple(d) for d in doc["delivered"])
        return sorted(delivered)

    reference = drive(1)
    assert reference, "churn scenario delivered nothing"
    assert drive(2) == reference
    assert drive(4) == reference
