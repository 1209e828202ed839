"""Shard-count equivalence: N shards must reproduce the 1-shard run.

The sharded engine's core guarantee is partition invariance: splitting a
cluster's hosts across shards is an implementation detail that must not
change one byte of the simulated outcome. These tests pin that down by comparing canonical trace JSON —
the same serialization the golden suite uses — between a 1-shard
reference and 2/4-shard runs, across a seed matrix.

On divergence the failing pair of trace documents is written to
``$SHARD_DIVERGENCE_DIR`` (when set) so CI can upload them as artifacts.
"""

import json
import os

import pytest

from repro.overlay.cluster import (
    run_cluster,
    tcp_ring_spec,
    udp_double_ring_spec,
    udp_ring_spec,
)
from repro.validate.golden import diff_trace_docs, trace_doc_to_json

#: Short but non-trivial horizon: ~hundreds of messages, several
#: thousand barrier windows per run.
DURATION_US = 2500.0
WARMUP_US = 1000.0


def _run(spec, shards):
    result = run_cluster(spec, shards=shards)
    assert result.trace_doc is not None
    return result


def _dump_divergence(name, reference_doc, actual_doc):
    """Write the diverging trace pair for CI artifact upload."""
    out_dir = os.environ.get("SHARD_DIVERGENCE_DIR")
    if not out_dir:
        return None
    os.makedirs(out_dir, exist_ok=True)
    ref_path = os.path.join(out_dir, f"{name}.reference.json")
    act_path = os.path.join(out_dir, f"{name}.actual.json")
    with open(ref_path, "w", encoding="utf-8") as handle:
        handle.write(trace_doc_to_json(reference_doc))
    with open(act_path, "w", encoding="utf-8") as handle:
        handle.write(trace_doc_to_json(actual_doc))
    diff_path = os.path.join(out_dir, f"{name}.diff.txt")
    with open(diff_path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(diff_trace_docs(reference_doc, actual_doc)))
    return out_dir


def _assert_equivalent(name, reference, actual):
    """Byte-identical traces plus identical headline results."""
    ref_json = trace_doc_to_json(reference.trace_doc)
    act_json = trace_doc_to_json(actual.trace_doc)
    if ref_json != act_json:
        where = _dump_divergence(name, reference.trace_doc, actual.trace_doc)
        diff = diff_trace_docs(reference.trace_doc, actual.trace_doc)
        pytest.fail(
            f"{name}: {actual.shards}-shard trace diverged from the "
            f"1-shard reference ({len(diff)} difference(s); "
            f"artifacts in {where or 'unset $SHARD_DIVERGENCE_DIR'}):\n"
            + "\n".join(diff[:10])
        )
    assert actual.messages_delivered == reference.messages_delivered
    assert actual.events_processed == reference.events_processed
    assert [h["messages_delivered"] for h in actual.per_host] == [
        h["messages_delivered"] for h in reference.per_host
    ]


@pytest.mark.parametrize("seed", [0, 7, 1234])
@pytest.mark.parametrize("shards", [2, 4])
def test_udp_ring_shards_match_reference(seed, shards):
    spec = udp_ring_spec(
        num_hosts=4,
        message_size=512,
        rate_pps=60_000.0,
        seed=seed,
        warmup_us=WARMUP_US,
        duration_us=DURATION_US,
        trace=True,
    )
    reference = _run(spec, shards=1)
    actual = _run(spec, shards=shards)
    _assert_equivalent(f"udp-seed{seed}-shards{shards}", reference, actual)
    # Sharding must do real work to be a meaningful test: every window
    # of this scenario crosses shard boundaries (it is a ring).
    assert actual.records_exchanged > 0
    assert actual.windows_run > 0


@pytest.mark.parametrize("shards", [2, 3])
def test_tcp_ring_shards_match_reference(shards):
    """Closed-loop TCP: data and credits cross shards in both directions."""
    spec = tcp_ring_spec(
        num_hosts=3,
        message_size=2048,
        window_msgs=4,
        seed=11,
        warmup_us=WARMUP_US,
        duration_us=DURATION_US,
        trace=True,
    )
    reference = _run(spec, shards=1)
    actual = _run(spec, shards=shards)
    _assert_equivalent(f"tcp-shards{shards}", reference, actual)
    assert actual.records_exchanged > 0


def test_falcon_cluster_shards_match_reference():
    """Falcon's softirq balancing is per-host state; sharding must not
    perturb its decisions."""
    spec = udp_ring_spec(
        num_hosts=4,
        message_size=512,
        rate_pps=80_000.0,
        seed=3,
        falcon=True,
        warmup_us=WARMUP_US,
        duration_us=DURATION_US,
        trace=True,
    )
    reference = _run(spec, shards=1)
    actual = _run(spec, shards=2)
    _assert_equivalent("falcon-shards2", reference, actual)


@pytest.mark.parametrize("shards", [2, 3])
def test_flowcache_churn_shards_match_reference(shards):
    """The flow-cache datapath under churn: a capacity-1 ingress table
    thrashes (miss → hit → evict), then mid-run churn on host 1 sends
    RECORD_INVAL to its senders across a shard boundary. Cache state is
    per-host, so partitioning must not move a single lookup."""
    spec = udp_double_ring_spec(
        num_hosts=3,
        message_size=512,
        rate_pps=40_000.0,
        rate2_pps=12_000.0,
        seed=9,
        flowcache=True,
        flowcache_capacity=1,
        churn=((1800.0, 1),),
        warmup_us=WARMUP_US,
        duration_us=DURATION_US,
        trace=True,
    )
    reference = _run(spec, shards=1)
    actual = _run(spec, shards=shards)
    _assert_equivalent(f"flowcache-shards{shards}", reference, actual)
    # Per-host cache counters (hits/misses/evictions/invalidations) are
    # part of the equivalence contract too.
    assert [h["flowcache"] for h in actual.per_host] == [
        h["flowcache"] for h in reference.per_host
    ]
    churned = reference.per_host[1]["flowcache"]
    assert churned["ingress_invalidations"] >= 1
    assert churned["ingress_hits"] > 0
    assert churned["ingress_evictions"] > 0
    assert actual.records_exchanged > 0


def test_uneven_partition_matches_reference():
    """Host counts that do not divide evenly (3 hosts over 2 shards)."""
    spec = udp_ring_spec(
        num_hosts=3,
        message_size=256,
        rate_pps=50_000.0,
        seed=5,
        warmup_us=WARMUP_US,
        duration_us=DURATION_US,
        trace=True,
    )
    reference = _run(spec, shards=1)
    actual = _run(spec, shards=2)
    _assert_equivalent("uneven-shards2", reference, actual)


def test_repeated_runs_are_identical():
    """The same (spec, shards) pair is bit-stable run to run — the
    equivalence assertions above would be meaningless otherwise."""
    spec = udp_ring_spec(
        num_hosts=4,
        seed=0,
        warmup_us=WARMUP_US,
        duration_us=DURATION_US,
        trace=True,
    )
    first = _run(spec, shards=2)
    second = _run(spec, shards=2)
    assert trace_doc_to_json(first.trace_doc) == trace_doc_to_json(
        second.trace_doc
    )
