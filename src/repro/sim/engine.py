"""Deterministic discrete-event simulation engine.

The engine is an event loop over one priority queue: events are
``(time, sequence)``-ordered callbacks held by a
:class:`~repro.sim.scheduler.HeapScheduler`. Determinism matters — two
runs with the same seed must produce identical results, so ties in event
time are broken by insertion order, never by object identity.

Design notes
------------
* Events are lightweight ``__slots__`` objects so that per-packet work
  (which can mean hundreds of thousands of events per run) stays cheap.
* There is one way to schedule: :meth:`Simulator.schedule` (relative
  delay) or :meth:`Simulator.schedule_at` (absolute time). Both return
  the :class:`Event` handle; callers that never cancel simply drop it.
* Cancellation is lazy: a cancelled event stays queued and is skipped
  when popped. This keeps :meth:`Simulator.cancel` O(1); the queue
  compacts itself when dead entries dominate, so schedule-and-cancel
  workloads do not grow it without bound.
* :meth:`Simulator.run` makes one scheduler call per event
  (:meth:`~repro.sim.scheduler.HeapScheduler.pop_until`), and the heap
  compares ``(time, seq)`` keys in C, never :class:`Event` objects.
* The simulator never advances time backwards; scheduling with a negative
  delay raises :class:`~repro.sim.errors.SimulationError`.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Optional

from repro.sim.errors import SimulationError
from repro.sim.events import Event
from repro.sim.scheduler import HeapScheduler

__all__ = ["Event", "Simulator"]


class Simulator:
    """Event loop with a microsecond clock.

    >>> sim = Simulator()
    >>> hits = []
    >>> _ = sim.schedule(5.0, hits.append, "a")
    >>> _ = sim.schedule(1.0, hits.append, "b")
    >>> sim.run()
    >>> hits
    ['b', 'a']
    >>> sim.now
    5.0
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._seq: int = 0
        self._halted: bool = False
        self.events_processed: int = 0
        #: Flow ids handed out so far in this simulated world (see
        #: :meth:`repro.sim.context.SimContext.new_flow_id`).
        self.flow_ids_issued: int = 0
        self._scheduler = HeapScheduler()
        #: Optional :class:`repro.validate.InvariantMonitor` hook. When
        #: None (the default) the event loop pays one attribute check per
        #: event and nothing else.
        self.monitor: Optional[Any] = None

    @property
    def scheduler(self) -> HeapScheduler:
        """The priority queue backing this simulator."""
        return self._scheduler

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` µs from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        event = Event(self.now + delay, self._seq, fn, args)
        self._seq += 1
        self._scheduler.push(event)
        return event

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at an absolute simulation time."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={self.now}"
            )
        event = Event(time, self._seq, fn, args)
        self._seq += 1
        self._scheduler.push(event)
        return event

    def cancel(self, event: Event) -> None:
        """Cancel a pending event (no-op if it already ran)."""
        if event.queued and not event.cancelled:
            event.cancelled = True
            self._scheduler.note_cancel(event)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Process events in time order.

        Args:
            until: stop once the clock would pass this timestamp. Events at
                exactly ``until`` are still processed; the clock is left at
                ``until`` if the queue ran dry earlier.
        """
        if self._halted:
            raise SimulationError("simulator has been halted")
        processed = 0
        pop_until = self._scheduler.pop_until
        horizon = math.inf if until is None else until
        while True:
            event = pop_until(horizon)
            if event is None:
                break
            if self.monitor is not None:
                self.monitor.on_event(self.now, event.time)
            self.now = event.time
            event.fn(*event.args)
            processed += 1
            if self._halted:
                break
        self.events_processed += processed
        if until is not None and self.now < until and not self._halted:
            self.now = until

    def step(self) -> bool:
        """Process a single event. Returns False when the queue is empty."""
        event = self._scheduler.pop()
        if event is None:
            return False
        if self.monitor is not None:
            self.monitor.on_event(self.now, event.time)
        self.now = event.time
        event.fn(*event.args)
        self.events_processed += 1
        return True

    def halt(self) -> None:
        """Stop the current :meth:`run` after the in-flight event returns."""
        self._halted = True

    def resume(self) -> None:
        """Clear a previous :meth:`halt` so that :meth:`run` works again."""
        self._halted = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def pending(self) -> int:
        """Events still queued (cancelled ones count until compacted)."""
        return len(self._scheduler)

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next live event, or None when idle."""
        event = self._scheduler.peek()
        return event.time if event is not None else None
