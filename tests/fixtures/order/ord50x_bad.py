"""ORD501-503: shard/worker identity leaking into the event stream.

Each leak here is invisible at shards=1 and silently breaks 1-vs-N-shard
byte-identity: timestamps, seeds and payloads must be functions of the
workload, never of the partition layout.
"""

import os


class ShardClock:
    def __init__(self, sim, shard_index):
        self.sim = sim
        self.shard_index = shard_index
        self.worker_id = 0

    def skewed_tick(self, sim):
        skew = self.shard_index * 0.25
        sim.schedule_at(sim.now + skew, self.on_tick)  # expect: ORD501

    def reseed(self, rng):
        rng.seed(os.getpid())  # expect: ORD502

    def tag_payload(self, sim, time_us, payload):
        sim.schedule_at(time_us, self.deliver, (payload, self.worker_id))  # expect: ORD503

    def emit(self, time_us, kind, dst):
        return CrossShardEvent(time_us, self.shard_index, 0, kind, dst, ())  # expect: ORD503


def make_skewed_host(base_seed, shard_index, factory):
    return factory(seed=base_seed * 1000 + shard_index)  # expect: ORD502
