"""The event queue behind :class:`~repro.sim.engine.Simulator`.

:class:`HeapScheduler` is a binary heap ordered strictly by
``(time, seq)``: ties in time break by insertion order, never by object
identity, so identical schedule/cancel sequences pop in identical order
(the golden suite pins this down). The heap holds ``(time, seq, event)``
tuples; ``seq`` is unique, so ``heapq`` orders entries by comparing
floats and ints in C and never calls back into Python. Three mechanics
sit on top of the heap:

* **Lazy cancellation with compaction.** ``cancel`` stays O(1) (it only
  flags the event), but the queue counts dead entries and rebuilds
  itself once they outnumber live ones past
  :data:`COMPACT_MIN_EVENTS` — so schedule-and-cancel workloads
  (retransmit timers, watchdogs) do not grow the queue without bound.
* **Lazy-pop peek.** ``peek`` discards cancelled entries from the head
  as a side effect and returns the next *live* event in O(live-gap)
  time.
* **One call per event.** ``pop_until`` is the event loop's only
  scheduler call: it discards dead heads like ``peek`` and pops the next
  live event if it is due by the loop's horizon.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import List, Optional, Tuple

from repro.sim.events import Event

#: One heap entry: the event's ``(time, seq)`` key, then the event.
Entry = Tuple[float, int, Event]

#: Compaction never triggers below this queue size: tiny queues are
#: cheap to carry and rebuilding them would dominate.
COMPACT_MIN_EVENTS = 256

#: Compact when live entries make up less than this fraction of the
#: queue. At 0.5 the rebuild cost amortizes to O(1) per cancellation.
COMPACT_LIVE_FRACTION = 0.5


class HeapScheduler:
    """Binary-heap event queue.

    Treats ``event.cancelled`` entries as absent from ``pop``/``peek``
    while still counting them in ``len()`` until they are discarded.
    """

    __slots__ = ("_heap", "_cancelled")

    def __init__(self) -> None:
        self._heap: List[Entry] = []
        self._cancelled = 0

    # -- insertion -----------------------------------------------------
    def push(self, event: Event) -> None:
        """Insert one event."""
        event.queued = True
        heappush(self._heap, (event.time, event.seq, event))

    # -- removal -------------------------------------------------------
    def pop(self) -> Optional[Event]:
        """Remove and return the next live event, or None when drained."""
        heap = self._heap
        while heap:
            event = heappop(heap)[2]
            event.queued = False
            if event.cancelled:
                self._cancelled -= 1
                continue
            return event
        return None

    def pop_until(self, until: float) -> Optional[Event]:
        """Remove and return the next live event if it is due by ``until``.

        Returns None when the queue is drained or the next live event lies
        after ``until`` (it stays queued).
        """
        heap = self._heap
        while heap:
            time, _seq, event = heap[0]
            if event.cancelled:
                heappop(heap)
                event.queued = False
                self._cancelled -= 1
                continue
            if time > until:
                return None
            heappop(heap)
            event.queued = False
            return event
        return None

    def peek(self) -> Optional[Event]:
        """Return the next live event without removing it."""
        heap = self._heap
        while heap:
            event = heap[0][2]
            if event.cancelled:
                heappop(heap)
                event.queued = False
                self._cancelled -= 1
                continue
            return event
        return None

    # -- cancellation --------------------------------------------------
    def note_cancel(self, event: Event) -> None:
        """Record that a queued event was cancelled (may compact)."""
        self._cancelled += 1
        size = len(self._heap)
        if size >= COMPACT_MIN_EVENTS and (
            size - self._cancelled < size * COMPACT_LIVE_FRACTION
        ):
            self._compact()

    def _compact(self) -> None:
        live = []
        for entry in self._heap:
            event = entry[2]
            if event.cancelled:
                event.queued = False
            else:
                live.append(entry)
        heapify(live)
        self._heap = live
        self._cancelled = 0

    def __len__(self) -> int:
        return len(self._heap)
