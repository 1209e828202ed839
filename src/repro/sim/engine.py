"""Deterministic discrete-event simulation engine.

The engine is an event loop over one binary heap of ``[time, seq, fn,
args]`` entries. Determinism matters — two runs with the same seed must
produce identical results, so ties in event time are broken by insertion
order, never by object identity: ``seq`` is unique, so ``heapq`` orders
entries by comparing floats and ints in C and never compares callbacks.

Design notes
------------
* :meth:`Simulator.schedule` (relative delay) and
  :meth:`Simulator.schedule_at` (absolute time) push one entry and return
  nothing: an event cannot be cancelled, so a callback that may become
  stale checks its own state when it fires.
* :meth:`Simulator.run` pops inline: no call per event besides the
  callback itself and ``heappop``.
* The simulator never advances time backwards; scheduling with a negative
  delay raises :class:`~repro.sim.errors.SimulationError`.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional

from repro.sim.errors import SimulationError

__all__ = ["Entry", "Simulator"]

#: One scheduled event: ``[time, seq, fn, args]``.
Entry = List[Any]


class Simulator:
    """Event loop with a microsecond clock.

    >>> sim = Simulator()
    >>> hits = []
    >>> sim.schedule(5.0, hits.append, "a")
    >>> sim.schedule(1.0, hits.append, "b")
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
        #: The event queue.
        self._heap: List[Entry] = []

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` to run ``delay`` µs from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        heappush(self._heap, [self.now + delay, self._seq, fn, args])
        self._seq += 1

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` at an absolute simulation time."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={self.now}"
            )
        heappush(self._heap, [time, self._seq, fn, args])
        self._seq += 1

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
            time = heap[0][0]
            if time > horizon:
                break
            entry = heappop(heap)
            self.now = time
            entry[2](*entry[3])
            processed += 1
        self.events_processed += processed
        if until is not None and self.now < until:
            self.now = until

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def pending(self) -> int:
        """Events still queued."""
        return len(self._heap)
