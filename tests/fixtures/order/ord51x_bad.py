"""ORD511-513: cross-shard causality violations.

A record timestamped below the window barrier + lookahead lands in the
receiving shard's *past*; reaching into another shard's program mutates
a world mid-window with no barrier at all; an ad-hoc CrossShardEvent
skips the per-source seq counter that keeps the merge key total.
"""


class LeakyOutbox:
    def __init__(self, sim, outbox):
        self.sim = sim
        self.outbox = outbox

    def publish_stale(self, src, flow_index):
        self.outbox.emit(self.sim.now, "inval", src, (flow_index,))  # expect: ORD511

    def publish_unproven(self, src, when):
        self.outbox.emit(when, "credit", src, ())  # expect: ORD511


def poke_other_shard(other, fn):
    other._program.sim.schedule_at(0.0, fn)  # expect: ORD512


def forge_record(time_us, src, seq, kind, dst, payload):
    return CrossShardEvent(time_us, src, seq, kind, dst, payload)  # expect: ORD513
