"""Deterministic discrete-event simulation engine.

The engine is an event loop over one binary heap of ``[time, seq, fn,
args]`` entries. Determinism matters — two runs with the same seed must
produce identical results, so ties in event time are broken by insertion
order, never by object identity: ``seq`` is unique, so ``heapq`` orders
entries by comparing floats and ints in C and never compares callbacks.

Design notes
------------
* The heap entry is the event handle. :meth:`Simulator.schedule`
  (relative delay) and :meth:`Simulator.schedule_at` (absolute time) push
  one list and return it; callers that never cancel simply drop it.
* An entry's ``fn`` slot is cleared when it is cancelled and when it
  fires, so :meth:`Simulator.cancel` of an event that already ran is a
  no-op that leaves the dead-entry count alone.
* Cancellation is lazy: a cancelled entry stays queued and is skipped
  when it reaches the head. This keeps :meth:`Simulator.cancel` O(1); the
  heap compacts itself once dead entries outnumber live ones past
  :data:`COMPACT_MIN_EVENTS`, so schedule-and-cancel workloads (retransmit
  timers, watchdogs) do not grow it without bound.
* :meth:`Simulator.run` pops inline: no call per event besides the
  callback itself and ``heappop``.
* The simulator never advances time backwards; scheduling with a negative
  delay raises :class:`~repro.sim.errors.SimulationError`.
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush
from typing import Any, Callable, List, Optional

from repro.sim.errors import SimulationError

__all__ = ["COMPACT_LIVE_FRACTION", "COMPACT_MIN_EVENTS", "Entry", "Simulator"]

#: One scheduled event and its handle: ``[time, seq, fn, args]``. ``fn``
#: is None once the event was cancelled or has fired.
Entry = List[Any]

#: Compaction never triggers below this queue size: tiny queues are
#: cheap to carry and rebuilding them would dominate.
COMPACT_MIN_EVENTS = 256

#: Compact when live entries make up less than this fraction of the
#: queue. At 0.5 the rebuild cost amortizes to O(1) per cancellation.
COMPACT_LIVE_FRACTION = 0.5


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
        self.events_processed: int = 0
        #: Flow ids handed out so far in this simulated world (see
        #: :meth:`repro.sim.context.SimContext.new_flow_id`).
        self.flow_ids_issued: int = 0
        #: The event queue. Only ever mutated in place, so the run loop
        #: may hold it in a local across compactions.
        self._heap: List[Entry] = []
        #: Cancelled entries still in ``_heap``.
        self._cancelled: int = 0
        #: Optional :class:`repro.validate.InvariantMonitor` hook. When
        #: None (the default) the event loop pays one attribute check per
        #: event and nothing else.
        self.monitor: Optional[Any] = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Entry:
        """Schedule ``fn(*args)`` to run ``delay`` µs from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        entry: Entry = [self.now + delay, self._seq, fn, args]
        self._seq += 1
        heappush(self._heap, entry)
        return entry

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Entry:
        """Schedule ``fn(*args)`` at an absolute simulation time."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={self.now}"
            )
        entry: Entry = [time, self._seq, fn, args]
        self._seq += 1
        heappush(self._heap, entry)
        return entry

    def cancel(self, entry: Entry) -> None:
        """Cancel a pending event (no-op if it already ran or was cancelled)."""
        if entry[2] is None:
            return
        entry[2] = None
        self._cancelled += 1
        size = len(self._heap)
        if size >= COMPACT_MIN_EVENTS and (
            size - self._cancelled < size * COMPACT_LIVE_FRACTION
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop every cancelled entry and rebuild the heap in place."""
        heap = self._heap
        heap[:] = [entry for entry in heap if entry[2] is not None]
        heapify(heap)
        self._cancelled = 0

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
        heap = self._heap
        horizon = math.inf if until is None else until
        processed = 0
        while heap:
            entry = heap[0]
            fn = entry[2]
            if fn is None:
                heappop(heap)
                self._cancelled -= 1
                continue
            time = entry[0]
            if time > horizon:
                break
            heappop(heap)
            entry[2] = None
            if self.monitor is not None:
                self.monitor.on_event(self.now, time)
            self.now = time
            fn(*entry[3])
            processed += 1
        self.events_processed += processed
        if until is not None and self.now < until:
            self.now = until

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def pending(self) -> int:
        """Events still queued (cancelled ones count until compacted)."""
        return len(self._heap)
