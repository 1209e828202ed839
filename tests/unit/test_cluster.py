"""The cluster's cross-shard record contract.

Records merge by ``(time, src, seq)``. ``(src, seq)`` must never repeat,
or two records from one host at one time tie and their order falls to
how the batch happened to be assembled. A record's payload is a tuple
of primitives, so no model object is shared between hosts.
"""

import pytest

from repro.overlay.cluster import RECORD_CREDIT, RECORD_SKB, _HostOutbox
from repro.sim.errors import ShardError
from repro.sim.shard.records import merge_records


def test_outbox_seq_makes_merge_keys_unique():
    first, second = _HostOutbox(0), _HostOutbox(1)
    for outbox in (first, second):
        for _ in range(3):
            outbox.emit(5.0, RECORD_CREDIT, 1 - outbox.host_index, (0,))
    records = first.drain()
    assert [record.seq for record in records] == [0, 1, 2]
    merged = merge_records(second.drain() + records)
    keys = [record.sort_key for record in merged]
    assert all(a < b for a, b in zip(keys, keys[1:])), keys


@pytest.mark.parametrize(
    "payload, reason",
    [
        ([4, 5.0], "payload is list, expected tuple"),
        (7, "payload is int, expected tuple"),
        ((4, object()), r"payload\[1\] has non-primitive type object"),
        ((4, (5.0, {"x": 1})), r"payload\[1\]\[1\] has non-primitive type dict"),
    ],
    ids=["list", "int", "object-leaf", "nested-dict"],
)
def test_outbox_rejects_non_primitive_payload(payload, reason):
    outbox = _HostOutbox(0)
    with pytest.raises(ShardError, match=reason):
        outbox.emit(5.0, RECORD_SKB, 1, payload)
    assert outbox.drain() == []
    outbox.emit(5.0, RECORD_SKB, 1, (4, 5.0, "x", True, None, (1, 2)))
    assert [record.seq for record in outbox.drain()] == [0]
