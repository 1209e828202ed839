"""Cross-shard event records and their merge order.

A :class:`CrossShardEvent` is the only thing that ever travels between
shards: a timestamped, source-ordered record of a simulated interaction
that crosses a shard boundary (a frame arriving on a remote host's NIC,
a TCP credit flying back to a remote sender). Records are exchanged at
window barriers and merged into the destination shard in **(time, src,
seq)** order — a total order, because ``(src, seq)`` pairs are unique —
so the injection order never depends on which shard answered a barrier
first, or on how hosts were partitioned into shards.

Records carry only primitives
-----------------------------
A record's fields are primitives and its ``payload`` a nested tuple of
primitives, never a model object: the destination host rebuilds its own
objects from the payload, so no mutable state is shared between hosts.
``_HostOutbox.emit`` in :mod:`repro.overlay.cluster` checks each payload
with :func:`validate_payload` and raises
:class:`~repro.sim.errors.ShardError` on a violation. ``src`` and
``dst`` are *global host indexes* (not shard indexes): the merge key
must not change when the host→shard partition does, or N-shard runs
could not be byte-identical to the 1-shard run.

A :class:`CrossShardEvent` is built only in an ``emit`` method, which
owns the per-source seq counter — an ad-hoc record anywhere else could
duplicate or skip a seq and break the total order.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Tuple

from repro.sim.errors import ShardError

#: Payload leaves may only be primitives.
_PRIMITIVES = (int, float, str, bool, type(None))


def validate_payload(payload: Any) -> None:
    """Reject a payload that is not a tuple of primitives (or of nested
    tuples of them) with a :class:`ShardError` naming the bad leaf."""
    if not isinstance(payload, tuple):
        raise ShardError(
            f"malformed cross-shard record: payload is "
            f"{type(payload).__name__}, expected tuple"
        )
    _validate_payload(payload, "payload")


def _validate_payload(value: Any, where: str) -> None:
    if isinstance(value, tuple):
        for index, item in enumerate(value):
            _validate_payload(item, f"{where}[{index}]")
        return
    # bool is an int subclass; the isinstance check covers both.
    if not isinstance(value, _PRIMITIVES):
        raise ShardError(
            f"malformed cross-shard record: {where} has non-primitive "
            f"type {type(value).__name__}"
        )


class CrossShardEvent:
    """One shard-crossing interaction, ordered by ``(time, src, seq)``."""

    __slots__ = ("time", "src", "seq", "kind", "dst", "payload")

    def __init__(
        self,
        time: float,
        src: int,
        seq: int,
        kind: str,
        dst: int,
        payload: Tuple[Any, ...] = (),
    ) -> None:
        self.time = time
        self.src = src
        self.seq = seq
        self.kind = kind
        self.dst = dst
        self.payload = payload

    @property
    def sort_key(self) -> Tuple[float, int, int]:
        """The deterministic merge key (total: ``(src, seq)`` is unique)."""
        return (self.time, self.src, self.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CrossShardEvent t={self.time:.3f} src={self.src} "
            f"seq={self.seq} {self.kind} -> host{self.dst}>"
        )


def merge_records(records: Iterable["CrossShardEvent"]) -> List["CrossShardEvent"]:
    """Deterministically order a batch of records for injection.

    Sorts by :attr:`CrossShardEvent.sort_key`. The key is total over any
    legal batch (``(src, seq)`` never repeats), so every permutation of
    the input — e.g. shards answering a barrier in a different order —
    yields the identical merged sequence.
    """
    return sorted(records, key=lambda record: record.sort_key)
