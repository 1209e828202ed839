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
* Cancellation is lazy: a cancelled event stays queued and is skipped
  when popped. This keeps :meth:`Simulator.cancel` O(1); the queue
  compacts itself when dead entries dominate, so schedule-and-cancel
  workloads do not grow it without bound.
* Fire-and-forget callers that never cancel should prefer
  :meth:`Simulator.post` / :meth:`Simulator.post_at` /
  :meth:`Simulator.post_batch` over ``schedule``: no handle escapes, so
  the engine recycles those events through a freelist instead of
  allocating a fresh object per packet.
* The simulator never advances time backwards; scheduling with a negative
  delay raises :class:`~repro.sim.errors.SimulationError`.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro.sim.errors import SimulationError
from repro.sim.events import Event
from repro.sim.scheduler import HeapScheduler

__all__ = ["Event", "Simulator"]

#: Upper bound on recycled Event objects kept per simulator.
_FREELIST_CAP = 4096


def _noop() -> None:
    """Placeholder callback installed on freelisted events."""


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
        self._freelist: List[Event] = []
        self.events_processed: int = 0
        #: Ownership ledger hook (REPRO_SANITIZE=1). None in normal runs:
        #: every instrumented site pays one ``is None`` check and nothing
        #: else, and the ledger itself never schedules or reads the
        #: clock, so sanitized traces stay byte-identical.
        self._san: Optional[Any] = None
        if os.environ.get("REPRO_SANITIZE"):
            from repro.validate.sanitize import current_ledger

            self._san = current_ledger()
        self._scheduler = HeapScheduler(self._san)
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
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at an absolute simulation time."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={self.now}"
            )
        event = Event(time, self._seq, fn, args)
        self._seq += 1
        if self._san is not None:
            self._san.acquire("event", id(event), "engine.schedule", event)
        self._scheduler.push(event)
        return event

    def post(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no handle, event is recycled.

        Use this on hot paths that never cancel — the event object goes
        back to a freelist after the callback returns instead of being
        garbage.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self._scheduler.push(self._acquire(self.now + delay, fn, args))

    def post_at(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule_at`."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={self.now}"
            )
        self._scheduler.push(self._acquire(time, fn, args))

    def post_batch(
        self,
        delay: float,
        fn: Callable[..., Any],
        args_list: Iterable[Tuple[Any, ...]],
    ) -> int:
        """Fire-and-forget a burst of ``fn(*args)`` calls at one instant.

        All events share the timestamp ``now + delay`` and run in
        ``args_list`` order (sequence numbers are assigned in iteration
        order). Built for NAPI poll storms, where a single poll round
        fans tens of per-packet continuations into the queue: the
        queue gets them as one bulk insert. Returns the number of
        events queued.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        time = self.now + delay
        events = [self._acquire(time, fn, args) for args in args_list]
        self._scheduler.push_many(events)
        return len(events)

    def cancel(self, event: Event) -> None:
        """Cancel a pending event (no-op if it already ran)."""
        if event.queued and not event.cancelled:
            event.cancelled = True
            self._scheduler.note_cancel(event)

    def _acquire(self, time: float, fn: Callable[..., Any], args: Tuple[Any, ...]) -> Event:
        """Build a recyclable event, reusing a freelisted one if possible."""
        free = self._freelist
        if free:
            event = free.pop()
            event.time = time
            event.seq = self._seq
            event.fn = fn
            event.args = args
            event.cancelled = False
        else:
            event = Event(time, self._seq, fn, args)
            event.reusable = True
        self._seq += 1
        if self._san is not None:
            self._san.acquire("event", id(event), "engine.post", event)
        return event

    def _recycle(self, event: Event) -> None:
        """Return a fired ``post*`` event to the freelist."""
        event.fn = _noop
        event.args = ()
        if len(self._freelist) < _FREELIST_CAP:
            self._freelist.append(event)

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
        scheduler = self._scheduler
        while True:
            event = scheduler.peek()
            if event is None:
                break
            if until is not None and event.time > until:
                break
            scheduler.pop()
            if self.monitor is not None:
                self.monitor.on_event(self.now, event.time)
            self.now = event.time
            try:
                event.fn(*event.args)
            finally:
                # A raising callback must not leak the event: recycle on
                # every exit so the pool keeps its object (and the
                # sanitizer sees exactly one release per fire).
                processed += 1
                if self._san is not None:
                    self._san.release("event", id(event), "engine.fired")
                if event.reusable:
                    self._recycle(event)
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
        try:
            event.fn(*event.args)
        finally:
            # Mirror run(): no leak (and exactly one release) on a
            # raising callback.
            self.events_processed += 1
            if self._san is not None:
                self._san.release("event", id(event), "engine.fired")
            if event.reusable:
                self._recycle(event)
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
