"""Cross-shard event records and their wire format.

A :class:`CrossShardEvent` is the only thing that ever travels between
shards: a timestamped, source-ordered record of a simulated interaction
that crosses a shard boundary (a frame arriving on a remote host's NIC,
a TCP credit flying back to a remote sender). Records are exchanged at
window barriers and merged into the destination shard in **(time, src,
seq)** order — a total order, because ``(src, seq)`` pairs are unique —
so the injection order never depends on which shard answered a barrier
first, or on how hosts were partitioned into shards.

Wire format
-----------
Records cross process boundaries as plain tuples of primitives
(``(time, src, seq, kind, dst, payload)``), never as pickled model
objects: each side reconstructs its own objects, and a malformed record
is detected at decode time and surfaced as a
:class:`~repro.sim.errors.ShardError` instead of corrupting a remote
simulator. ``src`` and ``dst`` are *global host indexes* (not shard
indexes): the merge key must not change when the host→shard partition
does, or N-shard runs could not be byte-identical to the 1-shard run.

A :class:`CrossShardEvent` is built only here, in an ``emit`` method
(which owns the per-source seq counter), or in ``from_wire`` (which
re-validates every field) — an ad-hoc record anywhere else could
duplicate or skip a seq and break the total order.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Tuple

from repro.sim.errors import ShardError

#: Payload leaves may only be primitives that survive any transport.
_PRIMITIVES = (int, float, str, bool, type(None))

WireRecord = Tuple[float, int, int, str, int, Tuple[Any, ...]]


def _validate_payload(value: Any, where: str) -> None:
    """Reject payloads that are not nested tuples of primitives."""
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

    def to_wire(self) -> WireRecord:
        return (self.time, self.src, self.seq, self.kind, self.dst, self.payload)

    @classmethod
    def from_wire(cls, wire: Any) -> "CrossShardEvent":
        """Decode a wire tuple, validating every field.

        Raises :class:`ShardError` with a readable reason on anything a
        buggy (or fault-injected) worker could have produced.
        """
        if not isinstance(wire, tuple) or len(wire) != 6:
            raise ShardError(
                f"malformed cross-shard record: expected a 6-tuple, got "
                f"{type(wire).__name__} {wire!r}"
            )
        time, src, seq, kind, dst, payload = wire
        if isinstance(time, bool) or not isinstance(time, (int, float)):
            raise ShardError(
                f"malformed cross-shard record: time {time!r} is not a number"
            )
        for label, value in (("src", src), ("seq", seq), ("dst", dst)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ShardError(
                    f"malformed cross-shard record: {label} {value!r} is "
                    "not an integer"
                )
        if not isinstance(kind, str) or not kind:
            raise ShardError(
                f"malformed cross-shard record: kind {kind!r} is not a "
                "non-empty string"
            )
        if not isinstance(payload, tuple):
            raise ShardError(
                f"malformed cross-shard record: payload is "
                f"{type(payload).__name__}, expected tuple"
            )
        _validate_payload(payload, "payload")
        return cls(float(time), src, seq, kind, dst, payload)

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
