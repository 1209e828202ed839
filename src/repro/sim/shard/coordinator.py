"""Conservative window-barrier synchronization across shards.

The :class:`ShardCoordinator` drives N shards — each an isolated
simulated world with its own :class:`~repro.sim.engine.Simulator` —
through the classic synchronous conservative discipline (the
null-message/window-barrier family of parallel DES):

1. every shard reports the timestamp of its earliest pending event;
2. the coordinator sets the barrier ``window_end = min(next) +
   lookahead``, where the lookahead is the minimum simulated latency any
   shard-crossing interaction needs (see :mod:`repro.hw.lookahead`);
3. every shard processes all events strictly below ``window_end``
   concurrently, collecting the cross-shard records it produced;
4. the records are routed and merged into their destination shards in
   ``(time, src, seq)`` order before the next window opens.

Why this is safe: an event executed inside a window has time ``t >=
min(next)``, so anything it emits for another shard arrives at ``t +
latency >= min(next) + lookahead = window_end`` — never inside the
window that produced it. The coordinator *checks* that bound on every
record and raises :class:`~repro.sim.errors.ShardError` on a violation
(a misdeclared lookahead would otherwise silently corrupt causality).
The same bound is enforced *statically* by ``repro check`` (ORD511):
every ``emit`` timestamp must be provably ``now + propagation``-shaped,
so a violation is caught at review time for every partition — not just
the shard layouts a test run happens to exercise.

Why it is deterministic: the barrier sequence depends only on the global
set of pending event times, which is partition-invariant, and the merge
key is total and built from global host indexes — so a 1-shard run and
an N-shard run inject exactly the same records in exactly the same
order at exactly the same barriers.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Protocol, Sequence, Tuple

from repro.sim.errors import ShardError
from repro.sim.shard.records import CrossShardEvent, merge_records


class ShardProgram(Protocol):
    """One shard's simulated world, as the coordinator sees it."""

    def next_time(self) -> Optional[float]:
        """Timestamp of the earliest pending event, or None when idle."""
        ...

    def advance(self, bound: float, inclusive: bool = False) -> List[CrossShardEvent]:
        """Process events with time < ``bound`` (<= when ``inclusive``);
        return the cross-shard records produced."""
        ...

    def inject(self, records: Sequence[CrossShardEvent]) -> None:
        """Schedule remote records, in the given (already merged) order."""
        ...

    def hosts(self) -> Sequence[int]:
        """Global host indexes simulated by this shard."""
        ...

    def finalize(self) -> Dict[str, Any]:
        """Collect results once the run is over (wire-safe primitives)."""
        ...


class ShardHandle(Protocol):
    """Transport wrapper around one shard (in-process or worker)."""

    index: int

    def begin_step(
        self,
        bound: float,
        inclusive: bool,
        records: Sequence[CrossShardEvent],
    ) -> None:
        """Issue one window step (inject ``records``, then advance)."""
        ...

    def finish_step(self) -> Tuple[Optional[float], List[CrossShardEvent]]:
        """Collect the step's reply: (next event time, produced records)."""
        ...

    def hosts(self) -> Sequence[int]:
        ...

    def finalize(self) -> Dict[str, Any]:
        ...

    def close(self) -> None:
        ...


class InlineShardHandle:
    """Runs a :class:`ShardProgram` in-process.

    This is both the 1-shard reference configuration and the
    deterministic N-shard test harness: the coordinator logic, record
    routing and merge discipline are byte-for-byte the ones the process
    transport uses — only the answering happens synchronously.
    """

    def __init__(self, index: int, program: ShardProgram) -> None:
        self.index = index
        self._program = program
        self._reply: Optional[Tuple[Optional[float], List[CrossShardEvent]]] = None

    def begin_step(
        self,
        bound: float,
        inclusive: bool,
        records: Sequence[CrossShardEvent],
    ) -> None:
        self._program.inject(records)
        produced = self._program.advance(bound, inclusive)
        self._reply = (self._program.next_time(), produced)

    def finish_step(self) -> Tuple[Optional[float], List[CrossShardEvent]]:
        if self._reply is None:
            raise ShardError(f"shard {self.index}: finish_step before begin_step")
        reply, self._reply = self._reply, None
        return reply

    def hosts(self) -> Sequence[int]:
        return self._program.hosts()

    def finalize(self) -> Dict[str, Any]:
        return self._program.finalize()

    def close(self) -> None:  # nothing to tear down in-process
        return None


class ShardCoordinator:
    """Drives shards window by window; owns routing and the barrier math."""

    def __init__(
        self,
        handles: Sequence[ShardHandle],
        lookahead_us: float,
        record_windows: bool = False,
    ) -> None:
        if not handles:
            raise ShardError("coordinator needs at least one shard")
        if lookahead_us <= 0:
            raise ShardError(
                f"lookahead must be strictly positive, got {lookahead_us}"
            )
        self.handles = list(handles)
        self.lookahead_us = lookahead_us
        #: Which shard simulates each global host (for record routing).
        self._shard_of_host: Dict[int, int] = {}
        for slot, handle in enumerate(self.handles):
            for host in handle.hosts():
                if host in self._shard_of_host:
                    raise ShardError(
                        f"host {host} assigned to two shards "
                        f"({self._shard_of_host[host]} and {slot})"
                    )
                self._shard_of_host[host] = slot
        #: Undelivered records per shard slot, already merged.
        self._inbox: List[List[CrossShardEvent]] = [[] for _ in self.handles]
        self._nexts: List[Optional[float]] = [None for _ in self.handles]
        self._primed = False
        # --- statistics / debugging -----------------------------------
        self.windows_run = 0
        self.records_exchanged = 0
        #: When ``record_windows``: (window_end, [record sort keys routed
        #: out of that window]) per window — the property tests use this
        #: to check that no record undercuts the barrier that bounds it.
        self.window_log: List[Tuple[float, List[Tuple[float, int, int]]]] = []
        self._record_windows = record_windows

    # ------------------------------------------------------------------
    def _step_all(self, bound: float, inclusive: bool) -> None:
        """One barrier: deliver inboxes, advance every shard, route."""
        # Issue the step to every shard before collecting any reply —
        # with the process transport this is what makes shards actually
        # run concurrently.
        for slot, handle in enumerate(self.handles):
            handle.begin_step(bound, inclusive, self._inbox[slot])
            self._inbox[slot] = []
        produced: List[CrossShardEvent] = []
        for slot, handle in enumerate(self.handles):
            next_time, records = handle.finish_step()
            self._nexts[slot] = next_time
            produced.extend(records)
        routed: List[Tuple[float, int, int]] = []
        if produced:
            for record in produced:
                if not inclusive and record.time < bound:
                    raise ShardError(
                        f"causality violation: shard of host {record.src} "
                        f"produced a record at t={record.time} inside the "
                        f"window ending at t={bound} — lookahead "
                        f"{self.lookahead_us} is not a safe bound"
                    )
                slot = self._shard_of_host.get(record.dst)
                if slot is None:
                    raise ShardError(
                        f"record addressed to unknown host {record.dst}"
                    )
                self._inbox[slot].append(record)
                routed.append(record.sort_key)
            self.records_exchanged += len(routed)
            for slot in range(len(self.handles)):
                if self._inbox[slot]:
                    self._inbox[slot] = merge_records(self._inbox[slot])
        if self._record_windows:
            self.window_log.append((bound, routed))
        # A shard's effective next event includes what we just routed to
        # it but have not delivered yet (saves a poll round-trip).
        for slot in range(len(self.handles)):
            pending = self._inbox[slot]
            if pending:
                earliest = pending[0].time
                current = self._nexts[slot]
                if current is None or earliest < current:
                    self._nexts[slot] = earliest

    def _global_next(self) -> Optional[float]:
        live = [t for t in self._nexts if t is not None]
        return min(live) if live else None

    # ------------------------------------------------------------------
    def run(self, until: float) -> None:
        """Advance the cluster through ``until`` (µs).

        Guarantees every event with time <= ``until`` is processed.
        Window granularity means events up to one lookahead *past*
        ``until`` may also run — deterministically so: the barrier
        sequence is a pure function of the global pending-event set, so
        any partition of hosts into shards overshoots identically.
        """
        if not self._primed:
            # Zero-width priming step: delivers nothing, processes
            # nothing (bound 0.0 is exclusive), reports initial clocks.
            self._step_all(0.0, False)
            self._primed = True
        while True:
            t_min = self._global_next()
            if t_min is None or t_min > until:
                break
            self._step_all(t_min + self.lookahead_us, False)
            self.windows_run += 1
        # Final inclusive step: deliver any still-undelivered records
        # (they all lie beyond ``until``) and let every clock reach
        # ``until`` so a subsequent run() continues cleanly.
        self._step_all(until, True)

    # ------------------------------------------------------------------
    def finalize(self) -> List[Dict[str, Any]]:
        """Per-shard results, in shard order."""
        return [handle.finalize() for handle in self.handles]

    def close(self) -> None:
        for handle in self.handles:
            handle.close()

    def __enter__(self) -> "ShardCoordinator":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
