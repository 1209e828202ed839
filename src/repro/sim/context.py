"""Per-run simulation context.

A :class:`SimContext` bundles everything one simulation run owns — the
event loop, the seeded RNG registry, the cost model, and the optional
monitor / trace sinks — into a single object constructed once per run
and threaded through the hardware and kernel layers. Before this
existed, each component carried its own ``sim`` / ``rng`` / ``monitor``
attributes wired up ad hoc, which made it easy for two "isolated" stacks
in one process to share state by accident. With an explicit context:

* every component belonging to a run reaches the same simulator and RNG
  registry through one handle;
* monitor and tracer attachment is a context-level operation that fans
  out to every registered hot-path sink, instead of a hand-maintained
  list of attribute assignments;
* two contexts in one process share nothing, so worker processes (or
  threads of a future parallel runner, and multi-host topologies today)
  can each own a fully isolated simulation.

Ownership rules
---------------
The context *owns* the run: one ``SimContext`` per simulated world, one
``Simulator`` and one ``RngRegistry`` per context. Components never
stash a second path to the simulator — :class:`~repro.hw.topology.Machine`
and :class:`~repro.kernel.stack.NetworkStack` keep their ``.sim``
attributes for compatibility, but those are the context's simulator.
Hot-path objects that consult ``monitor`` register themselves via
:meth:`SimContext.register_monitored` at construction time and keep a
plain ``monitor`` attribute that the context writes on attach/detach, so
the per-event cost of an unmonitored run stays one attribute check.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Optional

from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry

if TYPE_CHECKING:  # CostModel lives a layer above repro.sim.
    from repro.kernel.costs import CostModel


class SimContext:
    """Everything one simulation run owns, in one handle.

    >>> ctx = SimContext(seed=7, name="demo")
    >>> ctx.sim.now
    0.0
    >>> ctx.stream("ipi-jitter") is ctx.stream("ipi-jitter")
    True
    """

    def __init__(
        self,
        sim: Optional[Simulator] = None,
        rng: Optional[RngRegistry] = None,
        costs: Optional["CostModel"] = None,
        *,
        seed: int = 0,
        name: str = "run",
    ) -> None:
        self.sim = sim if sim is not None else Simulator()
        self.rng = rng if rng is not None else RngRegistry(seed)
        #: The run's cost model; filled in by the stack when it resolves
        #: its configuration, or passed explicitly.
        self.costs: Optional["CostModel"] = costs
        self.name = name
        #: Optional :class:`repro.validate.InvariantMonitor`.
        self.monitor: Optional[Any] = None
        #: Optional :class:`repro.metrics.tracing.PacketTracer`.
        self.tracer: Optional[Any] = None
        self._monitored: List[Any] = [self.sim]

    # ------------------------------------------------------------------
    # RNG streams
    # ------------------------------------------------------------------
    def stream(self, stream_name: str) -> Any:
        """Named deterministic RNG stream (see :class:`RngRegistry`)."""
        return self.rng.stream(stream_name)

    def new_flow_id(self) -> int:
        """The next flow id of this simulated world: 1, 2, ... in
        construction order.

        The count lives on the simulator, so every context sharing it
        (one per ``Host`` or ``Machine``) draws from one sequence: flows
        of co-simulated hosts never share an id, and a run's ids do not
        depend on what else ran in the process.
        """
        self.sim.flow_ids_issued += 1
        return self.sim.flow_ids_issued

    # ------------------------------------------------------------------
    # Monitor / tracer fan-out
    # ------------------------------------------------------------------
    def register_monitored(self, *sinks: Any) -> None:
        """Register hot-path objects whose ``monitor`` attribute this
        context manages. Called by components at construction time."""
        monitor = self.monitor
        for sink in sinks:
            self._monitored.append(sink)
            if monitor is not None:
                sink.monitor = monitor

    def attach_monitor(self, monitor: Any) -> None:
        """Point every registered sink's ``monitor`` at ``monitor``."""
        self.monitor = monitor
        for sink in self._monitored:
            sink.monitor = monitor

    def detach_monitor(self) -> None:
        """Clear ``monitor`` on every registered sink."""
        self.monitor = None
        for sink in self._monitored:
            sink.monitor = None

    def attach_tracer(self, tracer: Optional[Any]) -> None:
        """Install (or clear, with None) the run's packet tracer."""
        self.tracer = tracer

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SimContext {self.name!r} t={self.sim.now:.3f}us "
            f"sinks={len(self._monitored)}>"
        )
