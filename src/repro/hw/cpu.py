"""CPU core model.

A core is a serialized resource executing *work items*. Each work item has
a duration (µs), a label (the kernel function it models, used for
flamegraph accounting) and an execution context. Contexts are dispatched
in strict priority order, mirroring how Linux runs pending hardirqs before
softirqs before user threads on a core:

* ``HARDIRQ`` — NIC interrupt handlers,
* ``SOFTIRQ`` — ``net_rx_action`` / ``process_backlog`` bottom halves,
* ``USER``    — application threads (socket reads, request handling).

Execution is non-preemptive at work-item granularity: work items are short
(sub-µs to a few µs), so this matches the kernel's behaviour closely enough
for the contention effects the paper studies while keeping the simulation
fast.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple

from repro.metrics.cpuacct import HARDIRQ, SOFTIRQ, USER, CpuAccounting
from repro.sim.engine import Simulator

__all__ = ["Cpu", "HARDIRQ", "SOFTIRQ", "USER"]

_NUM_CONTEXTS = 3

#: Type of a completion callback invoked when a work item finishes.
Completion = Optional[Callable[..., Any]]


class Cpu:
    """A single core: a non-preemptive priority server.

    Work is submitted via :meth:`submit`; when the core is free it picks
    the highest-priority pending item, stays busy for its duration, charges
    the accounting, then invokes the completion callback.
    """

    __slots__ = (
        "sim",
        "index",
        "acct",
        "_queues",
        "_running",
        "load",
        "monitor",
        "_on_complete",
    )

    def __init__(self, sim: Simulator, index: int, acct: CpuAccounting) -> None:
        self.sim = sim
        self.index = index
        self.acct = acct
        self._queues: Tuple[Deque, ...] = tuple(deque() for _ in range(_NUM_CONTEXTS))
        self._running: Optional[tuple] = None
        #: Recent utilization in [0, 1]; refreshed by the kernel timer tick.
        #: This is the per-CPU load Algorithm 1 consults (``cpu.load``).
        self.load = 0.0
        #: Optional :class:`repro.validate.InvariantMonitor` hook (None
        #: when validation is not attached — the common case).
        self.monitor = None
        #: ``_complete`` bound once, not once per work item.
        self._on_complete = self._complete

    # ------------------------------------------------------------------
    # Submission & dispatch
    # ------------------------------------------------------------------
    def submit(
        self,
        context: int,
        label: str,
        duration: float,
        fn: Completion = None,
        *args: Any,
    ) -> None:
        """Queue ``duration`` µs of work; call ``fn(*args)`` when it completes."""
        if duration < 0:
            raise ValueError(f"work duration must be >= 0, got {duration}")
        item = (label, duration, fn, args)
        if self._running is None:
            hardirq, softirq, user = queues = self._queues
            if not (hardirq or softirq or user):
                # Idle core, nothing queued: the dispatcher would pop
                # this very item, so start it at once.
                self._start(context, item)
                return
            queues[context].append(item)
            self._maybe_dispatch()
        else:
            self._queues[context].append(item)

    def submit_multi(
        self,
        context: int,
        names: List[str],
        costs: List[float],
        fn: Completion = None,
        *args: Any,
    ) -> None:
        """Queue one work item whose busy time is split across labels.

        A batch of packets processed in one softirq round touches several
        kernel functions; ``names[i]`` is charged ``costs[i]`` µs while
        the core stays busy for their sum. ``costs`` must be a ``list``:
        that is how the dispatcher tells a multi-charge item.
        """
        item = (names, costs, fn, args)
        if self._running is None:
            hardirq, softirq, user = queues = self._queues
            if not (hardirq or softirq or user):
                self._start(context, item)
                return
            queues[context].append(item)
            self._maybe_dispatch()
        else:
            self._queues[context].append(item)

    def _maybe_dispatch(self) -> None:
        """Start the highest-priority queued item; the core must be idle."""
        hardirq, softirq, user = self._queues
        if hardirq:
            self._start(HARDIRQ, hardirq.popleft())
        elif softirq:
            self._start(SOFTIRQ, softirq.popleft())
        elif user:
            self._start(USER, user.popleft())

    def _start(self, context: int, item: tuple) -> None:
        """Run ``item`` now: charge it and schedule its completion."""
        label, duration, fn, args = item
        self._running = item
        if duration.__class__ is list:
            # Multi-charge item: ``label`` names, ``duration`` prices.
            duration = self.acct.charge_items(self.index, context, label, duration)
        else:
            self.acct.charge(self.index, context, label, duration)
        if self.monitor is not None:
            self.monitor.on_cpu_start(self.index, self.sim.now, duration)
        self.sim.schedule(duration, self._on_complete, fn, args)

    def _complete(self, fn: Completion, args: tuple) -> None:
        self._running = None
        if self.monitor is not None:
            self.monitor.on_cpu_complete(self.index, self.sim.now)
        if fn is not None:
            fn(*args)
        if self._running is None:
            hardirq, softirq, user = self._queues
            if hardirq or softirq or user:
                self._maybe_dispatch()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        return self._running is not None

    def queued(self, context: Optional[int] = None) -> int:
        """Number of queued (not yet started) work items."""
        if context is not None:
            return len(self._queues[context])
        return sum(len(queue) for queue in self._queues)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Cpu {self.index} load={self.load:.2f} queued={self.queued()}>"
