"""Golden-trace testing: canonical serialization + diff of packet traces.

A :class:`~repro.metrics.tracing.PacketTracer` records every pipeline
event for a sample of messages. This module freezes that output into a
canonical JSON document so runs can be diffed against checked-in goldens:
any change to event ordering, stage routing, core placement, or timing
shows up as a readable diff instead of a silently shifted figure.

Canonicalization rules (what makes two runs comparable):

* flow ids are remapped to dense indexes in ascending creation order;
* traces are sorted by (flow, msg); events keep their recorded order;
* timestamps are rounded to a fixed precision so the JSON text is stable.

The same directory pins every figure's quick-mode numbers as one digest
per figure (:func:`figure_digest`); the figure tier under
``tests/figures`` checks them.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

SCHEMA_VERSION = 1

#: Decimal places kept on event timestamps (µs). The simulation is
#: bit-deterministic; rounding only guards the JSON text representation.
TIME_PRECISION = 6

#: File in the golden directory mapping figure name -> series digest.
FIGURE_DIGESTS = "figures.json"


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------
def serialize_traces(tracer, meta: Optional[Dict] = None) -> Dict:
    """Freeze a tracer's recorded traces into a canonical document."""
    traces = tracer.traces(complete_only=False)
    flow_order = sorted({trace.flow_id for trace in traces})
    flow_index = {flow_id: index for index, flow_id in enumerate(flow_order)}
    entries = []
    for trace in sorted(traces, key=lambda t: (flow_index[t.flow_id], t.msg_id)):
        events = [
            [round(event.time_us, TIME_PRECISION), event.kind, event.stage, event.cpu]
            for event in trace.events
        ]
        entries.append(
            {"flow": flow_index[trace.flow_id], "msg": trace.msg_id, "events": events}
        )
    return {"schema": SCHEMA_VERSION, "meta": dict(meta or {}), "traces": entries}


def trace_doc_to_json(doc: Dict) -> str:
    """Canonical JSON text for a trace document (stable key order)."""
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def write_golden(path: Path, doc: Dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(trace_doc_to_json(doc))


def load_golden(path: Path) -> Dict:
    return json.loads(Path(path).read_text())


def canonical_series(value: Any) -> str:
    """A figure's raw ``series`` as text: keys sorted, floats by ``repr``."""
    if isinstance(value, dict):
        items = sorted(
            (canonical_series(key), canonical_series(item))
            for key, item in value.items()
        )
        return "{" + ",".join(f"{key}:{item}" for key, item in items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(canonical_series(item) for item in value) + "]"
    return repr(float(value)) if isinstance(value, float) else repr(value)


def figure_digest(series: Dict[str, Any]) -> str:
    """sha256 of :func:`canonical_series`: one ulp anywhere changes it."""
    return hashlib.sha256(canonical_series(series).encode()).hexdigest()


def python_version() -> str:
    """The running interpreter as ``major.minor``."""
    return "%d.%d" % sys.version_info[:2]


def write_figure_digests(golden_dir: Path) -> None:
    """Run every figure in quick mode and pin its series digest.

    Floats are pinned exactly, and float ``sum`` differs between CPython
    minor versions (3.12 compensates rounding), so the file records the
    interpreter it was pinned under.
    """
    from repro.experiments.run_all import FIGURES

    digests = {
        name: figure_digest(
            importlib.import_module(f"repro.experiments.{name}").run(quick=True).series
        )
        for name in FIGURES
    }
    write_golden(
        Path(golden_dir) / FIGURE_DIGESTS,
        {"python": python_version(), "digests": digests},
    )


# ----------------------------------------------------------------------
# Diffing
# ----------------------------------------------------------------------
def diff_trace_docs(expected: Dict, actual: Dict, max_messages: int = 20) -> List[str]:
    """Human-readable differences between two trace documents.

    Returns an empty list when the documents are identical (after
    canonicalization). Messages are capped at ``max_messages``.
    """
    diffs: List[str] = []

    def emit(message: str) -> bool:
        """Record one diff; returns False once the cap is reached."""
        if len(diffs) >= max_messages:
            return False
        diffs.append(message)
        return True

    if expected.get("schema") != actual.get("schema"):
        emit(
            f"schema version mismatch: golden {expected.get('schema')} vs "
            f"run {actual.get('schema')}"
        )
        return diffs
    expected_meta = expected.get("meta", {})
    actual_meta = actual.get("meta", {})
    for key in sorted(set(expected_meta) | set(actual_meta)):
        if expected_meta.get(key) != actual_meta.get(key):
            if not emit(
                f"meta[{key!r}]: golden {expected_meta.get(key)!r} vs run "
                f"{actual_meta.get(key)!r}"
            ):
                return diffs

    by_key_expected = {(t["flow"], t["msg"]): t for t in expected.get("traces", [])}
    by_key_actual = {(t["flow"], t["msg"]): t for t in actual.get("traces", [])}
    for key in sorted(set(by_key_expected) - set(by_key_actual)):
        if not emit(f"trace flow={key[0]} msg={key[1]}: in golden but missing from run"):
            return diffs
    for key in sorted(set(by_key_actual) - set(by_key_expected)):
        if not emit(f"trace flow={key[0]} msg={key[1]}: in run but not in golden"):
            return diffs
    for key in sorted(set(by_key_expected) & set(by_key_actual)):
        want = by_key_expected[key]["events"]
        got = by_key_actual[key]["events"]
        if want == got:
            continue
        label = f"trace flow={key[0]} msg={key[1]}"
        if len(want) != len(got):
            if not emit(f"{label}: {len(want)} events in golden vs {len(got)} in run"):
                return diffs
        for index, (w, g) in enumerate(zip(want, got)):
            if list(w) != list(g):
                emit(
                    f"{label} event {index}: golden "
                    f"[t={w[0]} {w[1]}:{w[2]} cpu{w[3]}] vs run "
                    f"[t={g[0]} {g[1]}:{g[2]} cpu{g[3]}]"
                )
                break
        if len(diffs) >= max_messages:
            diffs.append("... diff truncated")
            return diffs
    return diffs


# ----------------------------------------------------------------------
# Golden scenarios (shipped configurations the harness pins down)
# ----------------------------------------------------------------------
def default_golden_dir() -> Path:
    """tests/goldens at the repository root (falls back to the cwd)."""
    repo_root = Path(__file__).resolve().parents[3]
    candidate = repo_root / "tests" / "goldens"
    if candidate.parent.is_dir():
        return candidate
    return Path.cwd() / "tests" / "goldens"


GOLDEN_SCENARIOS = (
    {
        "name": "udp_fixed_vanilla",
        "falcon": False,
        "proto": "udp",
        "message_size": 512,
        "rate_pps": 60_000.0,
    },
    {
        "name": "udp_fixed_falcon",
        "falcon": True,
        "proto": "udp",
        "message_size": 512,
        "rate_pps": 60_000.0,
    },
    {
        "name": "tcp_stream_falcon_split",
        "falcon": True,
        "split_gro": True,
        "proto": "tcp",
        "message_size": 4096,
        "window_msgs": 16,
    },
    # The flow-cache (ONCache) datapath: paced rates so the ordering
    # gate opens and the traces actually take the fastpath stage.
    {
        "name": "udp_fixed_oncache",
        "falcon": False,
        "flowcache": True,
        "proto": "udp",
        "message_size": 512,
        "rate_pps": 60_000.0,
    },
    {
        "name": "udp_fixed_oncache_falcon",
        "falcon": True,
        "flowcache": True,
        "proto": "udp",
        "message_size": 512,
        "rate_pps": 60_000.0,
    },
)


#: Multi-host scenarios run through the sharded engine's record path.
#: Goldens are generated at shards=1 (the reference partition); the
#: shard-equivalence suite then demands byte-identical documents from
#: every other shard count, so these files pin down the cross-shard
#: merge discipline as well as the pipeline itself.
CLUSTER_GOLDEN_SCENARIOS = (
    {
        "name": "cluster_udp_ring_vanilla",
        "kind": "cluster",
        "proto": "udp",
        "num_hosts": 4,
        "message_size": 512,
        "rate_pps": 40_000.0,
        "falcon": False,
    },
    {
        "name": "cluster_udp_ring_falcon",
        "kind": "cluster",
        "proto": "udp",
        "num_hosts": 4,
        "message_size": 512,
        "rate_pps": 40_000.0,
        "falcon": True,
    },
    {
        "name": "cluster_tcp_ring",
        "kind": "cluster",
        "proto": "tcp",
        "num_hosts": 3,
        "message_size": 4096,
        "window_msgs": 8,
        "falcon": False,
    },
    # Full cache lifecycle under the sharded engine: two flows per host
    # thrash a capacity-1 ingress table (miss → hit → evict), then
    # mid-run churn on host 1 invalidates locally and sends RECORD_INVAL
    # to its senders (across a shard boundary at shards > 1).
    {
        "name": "cluster_udp_ring_oncache_churn",
        "kind": "cluster",
        "proto": "udp2",
        "num_hosts": 3,
        "message_size": 512,
        "rate_pps": 40_000.0,
        "rate2_pps": 12_000.0,
        "falcon": False,
        "flowcache": True,
        "flowcache_capacity": 1,
        "churn": [[3500.0, 1]],
    },
)


def run_golden_scenario(spec: Dict, duration_ms: float = 5.0, warmup_ms: float = 2.0) -> Dict:
    """Run one golden scenario with a tracer attached; return its document."""
    from repro.core.config import FalconConfig, FlowCacheConfig
    from repro.metrics.tracing import PacketTracer
    from repro.workloads.sockperf import Testbed

    if spec.get("kind") == "cluster":
        return run_cluster_golden_scenario(spec)
    falcon = None
    if spec.get("falcon"):
        falcon = FalconConfig(split_gro=bool(spec.get("split_gro")))
    flowcache = None
    if spec.get("flowcache"):
        flowcache = FlowCacheConfig(
            capacity=int(spec.get("flowcache_capacity", 128))
        )
    bed = Testbed(
        mode="overlay",
        falcon=falcon,
        flowcache=flowcache,
        seed=int(spec.get("seed", 0)),
    )
    tracer = PacketTracer(sample_every=10, max_messages=64)
    bed.stack.tracer = tracer
    if spec["proto"] == "udp":
        bed.add_udp_flow(spec["message_size"], rate_pps=spec["rate_pps"])
    else:
        bed.add_tcp_flow(spec["message_size"], window_msgs=spec["window_msgs"])
    bed.run(warmup_ms=warmup_ms, measure_ms=duration_ms)
    meta = {key: spec[key] for key in sorted(spec)}
    meta["duration_ms"] = duration_ms
    meta["warmup_ms"] = warmup_ms
    return serialize_traces(tracer, meta=meta)


def cluster_spec_for(spec: Dict, shards_hint: int = 1):
    """Build the ClusterSpec behind one cluster golden scenario."""
    from repro.overlay.cluster import (
        tcp_ring_spec,
        udp_double_ring_spec,
        udp_ring_spec,
    )

    common = dict(
        num_hosts=int(spec["num_hosts"]),
        falcon=bool(spec.get("falcon")),
        seed=int(spec.get("seed", 0)),
        trace=True,
        warmup_us=2000.0,
        duration_us=5000.0,
    )
    if spec.get("flowcache"):
        common["flowcache"] = True
        common["flowcache_capacity"] = int(spec.get("flowcache_capacity", 128))
    if spec.get("churn"):
        common["churn"] = tuple(
            (float(time_us), int(h)) for time_us, h in spec["churn"]
        )
    if spec["proto"] == "udp":
        return udp_ring_spec(
            message_size=spec["message_size"],
            rate_pps=spec["rate_pps"],
            **common,
        )
    if spec["proto"] == "udp2":
        return udp_double_ring_spec(
            message_size=spec["message_size"],
            rate_pps=spec["rate_pps"],
            rate2_pps=spec["rate2_pps"],
            **common,
        )
    return tcp_ring_spec(
        message_size=spec["message_size"],
        window_msgs=spec["window_msgs"],
        **common,
    )


def run_cluster_golden_scenario(spec: Dict, shards: int = 1) -> Dict:
    """Run one cluster scenario at ``shards`` shards; return its trace doc.

    The document is independent of ``shards`` by design — that is the
    sharded engine's core guarantee, and what the equivalence suite
    asserts by diffing this output across shard counts.
    """
    from repro.overlay.cluster import run_cluster

    result = run_cluster(cluster_spec_for(spec), shards=shards)
    doc = result.trace_doc
    assert doc is not None  # trace=True above
    doc["meta"]["name"] = spec["name"]
    return doc


def check_goldens(
    golden_dir: Optional[Path] = None,
    regen: bool = False,
    only: Optional[List[str]] = None,
) -> Dict[str, List[str]]:
    """Compare (or regenerate) every golden scenario.

    Returns ``{scenario name: [diff messages]}`` — empty lists mean a
    clean pass; a missing golden without ``regen`` is itself a failure.
    ``regen`` also re-pins the figure digests (not compared here).
    """
    golden_dir = Path(golden_dir) if golden_dir is not None else default_golden_dir()
    results: Dict[str, List[str]] = {}
    if regen and only is None:
        write_figure_digests(golden_dir)
        results["figures"] = []
    for spec in GOLDEN_SCENARIOS + CLUSTER_GOLDEN_SCENARIOS:
        name = spec["name"]
        if only is not None and name not in only:
            continue
        doc = run_golden_scenario(spec)
        path = golden_dir / f"{name}.json"
        if regen:
            write_golden(path, doc)
            results[name] = []
            continue
        if not path.exists():
            results[name] = [
                f"golden file {path} missing — run `repro validate --regen-goldens`"
            ]
            continue
        results[name] = diff_trace_docs(load_golden(path), doc)
    return results
