"""The cluster's cross-shard record contract.

Records merge by ``(time, src, seq)``. ``(src, seq)`` must never repeat,
or two records from one host at one time tie and their order falls to
how the batch happened to be assembled.
"""

from repro.overlay.cluster import RECORD_CREDIT, _HostOutbox
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
