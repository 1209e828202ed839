"""Partition-invariant counterparts of the ORD50x leaks.

Shard identity may be *held* (the coordinator needs it for routing); it
just must never reach a timestamp, seed or payload. Host-index-derived
seeds are fine — the host set is the same under every partition.
"""


class InvariantClock:
    def __init__(self, sim, shard_index):
        self.sim = sim
        self.shard_index = shard_index  # routing identity, never leaked

    def tick(self, sim, period_us):
        sim.schedule_at(sim.now + period_us, self.on_tick)

    def tag_message(self, sim, time_us, payload, msg_id):
        sim.schedule_at(time_us, self.deliver, (payload, msg_id))


def make_invariant_host(spec, index, factory):
    # Per-host seed: a function of the workload spec and the host's
    # position in the (partition-independent) host set.
    return factory(seed=spec.seed * 1_000_003 + index)


def derive_stream(rng, name):
    return rng.stream(f"host/{name}")
