"""Static↔dynamic cross-check: the ``trace`` step of ``repro check``.

The rules reason about a model of the running system: the stage graph
derived by :func:`~repro.analysis.flow.stagespec.stage_order_spec`. This
step holds that model against what runs actually did. It replays the
golden traces (``tests/goldens/*.json``, recorded by
:mod:`repro.validate.golden` from
:class:`~repro.metrics.tracing.PacketTracer` events) once, runs no
simulation, and reports an **error** when:

* a stage edge of a single-packet trace is missing from the static
  graph — the FLOW rules (and RACE301's call graph) would be reasoning
  about a pipeline that does not exist;
* any trace takes an edge into or out of the ``fastpath`` stage that the
  static graph lacks — the modelled cache wiring no longer matches
  reality;
* within one flow, message *n+1* completes delivery before message *n* —
  the flow cache's ordering gate (:mod:`repro.kernel.flowcache`) failed
  to keep per-flow delivery order.

A static edge no golden exercises is a **warning**: dead modelling or
missing trace coverage (host-mode edges are expected here while the
goldens are all overlay scenarios). Synthetic nodes
(``alloc``/``hardirq``/``free``) never appear in traces and are not
compared.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.flow.stagespec import ALLOC, FREE, HARDIRQ, stage_order_spec

#: The cached-datapath stage name FastPathTransition jumps through.
FASTPATH_STAGE = "fastpath"

Edge = Tuple[str, str]

#: (trace file basename, flow id, earlier msg, later msg, earlier
#: delivery time, later delivery time) for each order inversion.
Inversion = Tuple[str, int, int, int, float, float]


@dataclass
class TraceCheck:
    """Outcome of one replay of the goldens."""

    trace_files: List[str] = field(default_factory=list)
    #: Single-packet traces replayed for stage edges.
    traces_replayed: int = 0
    #: Multi-packet traces (TCP segments / GRO / ACKs share one msg id,
    #: so their events interleave): consecutive events are not edges.
    traces_skipped: int = 0
    flows_checked: int = 0
    deliveries_checked: int = 0
    #: Edges of single-packet traces, with the number exercising each.
    observed: Dict[Edge, int] = field(default_factory=dict)
    #: Edges touching the fastpath stage, over all traces.
    fastpath_observed: Dict[Edge, int] = field(default_factory=dict)
    # Errors.
    missing_edges: List[Edge] = field(default_factory=list)
    unknown_fastpath_edges: List[Edge] = field(default_factory=list)
    inversions: List[Inversion] = field(default_factory=list)
    # Warnings.
    unobserved_edges: List[Edge] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors()

    def errors(self) -> List[str]:
        lines = [
            f"runtime edge {a}->{b} is missing from the static stage graph"
            for a, b in self.missing_edges
        ]
        lines.extend(
            f"runtime fastpath edge {a}->{b} is missing from the static "
            "stage graph"
            for a, b in self.unknown_fastpath_edges
        )
        lines.extend(
            f"{name} flow {flow}: msg {later} delivered at {later_t}us "
            f"before msg {earlier} at {earlier_t}us"
            for name, flow, earlier, later, earlier_t, later_t in self.inversions
        )
        return lines

    def warnings(self) -> List[str]:
        return [
            f"static edge {a}->{b} never observed in any golden trace"
            for a, b in self.unobserved_edges
        ]

    def summary(self) -> str:
        return (
            f"{self.traces_replayed} traces from {len(self.trace_files)} "
            f"goldens ({self.traces_skipped} multi-packet skipped), "
            f"{self.deliveries_checked} deliveries in {self.flows_checked} "
            "flows"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "trace_files": [os.path.basename(p) for p in self.trace_files],
            "traces_replayed": self.traces_replayed,
            "traces_skipped_multi_packet": self.traces_skipped,
            "flows_checked": self.flows_checked,
            "deliveries_checked": self.deliveries_checked,
            "observed_edges": {
                f"{a}->{b}": count for (a, b), count in sorted(self.observed.items())
            },
            "errors": self.errors(),
            "warnings": self.warnings(),
        }


def trace_check(trace_files: Optional[Sequence[str]] = None) -> TraceCheck:
    """Cross-check the static stage graph against recorded traces.

    ``trace_files`` defaults to every golden trace.
    """
    if trace_files is None:
        from repro.validate.golden import FIGURE_DIGESTS, default_golden_dir

        golden_dir = default_golden_dir()
        trace_files = sorted(
            os.path.join(golden_dir, name)
            for name in os.listdir(golden_dir)
            if name.endswith(".json") and name != FIGURE_DIGESTS
        )
    result = TraceCheck(trace_files=list(trace_files))
    for path in result.trace_files:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        _replay(os.path.basename(path), doc.get("traces", ()), result)

    spec = stage_order_spec()
    synthetic = {ALLOC, HARDIRQ, FREE}
    comparable = {edge for edge in spec.edges if not set(edge) & synthetic}
    result.missing_edges = sorted(
        edge for edge in result.observed if edge not in comparable
    )
    result.unknown_fastpath_edges = sorted(
        edge for edge in result.fastpath_observed if edge not in spec.edges
    )
    result.unobserved_edges = sorted(
        comparable - set(result.observed) - set(result.fastpath_observed)
    )
    return result


def _replay(name: str, traces: Iterable[Dict[str, Any]], result: TraceCheck) -> None:
    """Fold one golden file's traces into ``result``."""
    deliveries: Dict[int, List[Tuple[int, float]]] = {}
    for trace in traces:
        events = trace.get("events", ())
        edges = _trace_edges(events)
        for edge in edges:
            if FASTPATH_STAGE in edge:
                result.fastpath_observed[edge] = (
                    result.fastpath_observed.get(edge, 0) + 1
                )
        if _single_packet(events):
            result.traces_replayed += 1
            for edge in edges:
                result.observed[edge] = result.observed.get(edge, 0) + 1
        else:
            result.traces_skipped += 1
        times = [float(e[0]) for e in events if str(e[1]) == "deliver"]
        if times:
            flow = int(trace.get("flow", 0))
            deliveries.setdefault(flow, []).append(
                (int(trace.get("msg", 0)), max(times))
            )
    for flow, entries in sorted(deliveries.items()):
        result.flows_checked += 1
        result.deliveries_checked += len(entries)
        entries.sort()
        for (earlier, earlier_t), (later, later_t) in zip(entries, entries[1:]):
            if later_t < earlier_t:
                result.inversions.append(
                    (name, flow, earlier, later, earlier_t, later_t)
                )


def _single_packet(events: Sequence[Sequence[Any]]) -> bool:
    """True when the trace records exactly one packet's journey.

    A multi-packet trace repeats a ``(kind, stage)`` pair — one packet
    passes each stage once.
    """
    seen: Set[Tuple[str, str]] = set()
    for event in events:
        key = (str(event[1]), str(event[2]))
        if key in seen:
            return False
        seen.add(key)
    return True


def _trace_edges(events: Sequence[Sequence[Any]]) -> Set[Edge]:
    """Stage edges a trace exercised.

    Events are ``[time_us, kind, stage, cpu]``. ``enqueue`` names the
    *target* stage before the hop executes; ``exec``/``deliver`` move the
    packet's current stage. Both orderings witness the same edge.
    """
    edges: Set[Edge] = set()
    current = ""
    for event in sorted(events, key=lambda e: float(e[0])):
        kind = str(event[1])
        stage = str(event[2])
        if current and stage != current:
            edges.add((current, stage))
        if kind in ("exec", "deliver"):
            current = stage
    return edges
