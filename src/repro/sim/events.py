"""The scheduled-callback record shared by the engine and its queue.

Split out of :mod:`repro.sim.engine` so the queue
(:mod:`repro.sim.scheduler`) can type against :class:`Event` without a
circular import.
"""

from __future__ import annotations

from typing import Any, Callable, Tuple


class Event:
    """A scheduled callback.

    Instances are returned by :meth:`~repro.sim.engine.Simulator.schedule`
    and can be passed to :meth:`~repro.sim.engine.Simulator.cancel`. The
    scheduler orders them by ``(time, seq)``, which it queues beside each
    event, so events themselves are never compared.

    The ``queued`` flag is engine bookkeeping, not part of the public
    surface: it tracks whether the event currently sits in the scheduler
    (so cancel-after-fire cannot corrupt compaction accounting).
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "queued")

    def __init__(
        self, time: float, seq: int, fn: Callable[..., Any], args: Tuple[Any, ...]
    ) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.queued = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<Event t={self.time:.3f}us #{self.seq} {name}{state}>"
