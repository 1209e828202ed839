"""Sharded simulation engine with conservative lookahead sync.

Partitions a simulated cluster one shard per host group, runs each
shard's :class:`~repro.sim.engine.Simulator` in turn inside this
process, and synchronizes them at window barriers bounded by the minimum
inter-host link latency. See :mod:`repro.sim.shard.coordinator` for the
barrier algebra and :mod:`repro.sim.shard.records` for the determinism
story.
"""

from repro.sim.shard.coordinator import (
    InlineShardHandle,
    ShardCoordinator,
    ShardProgram,
)
from repro.sim.shard.records import CrossShardEvent, merge_records, validate_payload

__all__ = [
    "CrossShardEvent",
    "InlineShardHandle",
    "ShardCoordinator",
    "ShardProgram",
    "merge_records",
    "validate_payload",
]
