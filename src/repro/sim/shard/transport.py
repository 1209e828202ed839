"""Worker-process transport for the sharded engine.

This is deliberately the *only* module in the simulated scope that talks
to the operating system: it spawns one worker process per shard, wires a
duplex pipe to it, and speaks a tiny request/reply protocol whose
payloads are plain tuples of primitives (see
:mod:`repro.sim.shard.records`). Everything on the simulation side —
coordinator, records, shard programs — stays pure DES code; the lint
rules that ban concurrency primitives inside the simulated scope carve
out exactly this module: pids, pipe fds and poll timeouts are this
module's *job*, and nothing here flows into simulated timestamps, seeds
or payloads — the wire tuples it ships are constructed on the
simulation side. The carve-out is declared on the rules themselves
(``Rule.exempt``), not as pragmas, so the exemption is reviewed where
the rule is defined and the baselines stay empty.

Protocol (coordinator → worker):

- ``("step", bound, inclusive, wire_records)`` → ``("ok", next_time,
  out_wire_records)``: inject the records, advance to the bound, report
  the new earliest pending time and whatever crossed out.
- ``("finalize",)`` → ``("ok", result_dict)``: collect results.
- ``("close",)``: exit the command loop (no reply).

Any protocol breach — the worker dying mid-window, not answering within
the timeout, replying garbage — surfaces as a
:class:`~repro.sim.errors.ShardError` naming the shard, never a hang:
every wait on the pipe is bounded by ``conn.poll(timeout)``.

Workers are *spawned* (not forked) so each starts from a clean
interpreter: shard programs are rebuilt inside the worker from a
``"module:function"`` builder reference plus primitive arguments, which
keeps the parent's state (RNG counters, flow-id counters, monkeypatches)
from leaking into any shard.

Fault injection
---------------
``ProcessShardHandle`` accepts a ``fault`` spec used by the test suite
to rehearse worker failure: ``("die", k)`` hard-exits the worker on its
k-th step, ``("malformed", k)`` makes it reply a corrupt record, and
``("hang", k)`` makes it sleep past any reasonable timeout. All three
must surface as ``ShardError``.
"""

from __future__ import annotations

import importlib
import multiprocessing
import os
import time as _time
from multiprocessing.connection import Connection
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.sim.errors import ShardError
from repro.sim.shard.coordinator import ShardProgram
from repro.sim.shard.records import CrossShardEvent

#: Default bound on any single wait for a worker reply. Windows are
#: microseconds of simulated time but can be milliseconds of real time;
#: this only needs to be comfortably above the slowest honest window.
DEFAULT_STEP_TIMEOUT_S = 30.0

FaultSpec = Tuple[str, int]


def resolve_builder(ref: str) -> Any:
    """Resolve a ``"module:function"`` reference to the callable."""
    module_name, _, attr = ref.partition(":")
    if not module_name or not attr:
        raise ShardError(f"invalid shard builder reference {ref!r}")
    module = importlib.import_module(module_name)
    builder = getattr(module, attr, None)
    if builder is None or not callable(builder):
        raise ShardError(f"shard builder {ref!r} does not name a callable")
    return builder


def _shard_worker_main(
    conn: Connection,
    index: int,
    builder_ref: str,
    builder_args: Tuple[Any, ...],
    fault: Optional[FaultSpec],
) -> None:
    """Command loop run inside the spawned worker process."""
    try:
        builder = resolve_builder(builder_ref)
        program: ShardProgram = builder(*builder_args)
    except Exception as exc:  # surface build failures as a reply
        conn.send(("error", f"shard {index} failed to build: {exc!r}"))
        return
    conn.send(("ready",))
    steps = 0
    while True:
        request = conn.recv()
        command = request[0]
        if command == "close":
            return
        if command == "finalize":
            conn.send(("ok", program.finalize()))
            continue
        if command != "step":
            conn.send(("error", f"shard {index}: unknown command {command!r}"))
            continue
        _, bound, inclusive, wire_records = request
        steps += 1
        if fault is not None and steps >= fault[1]:
            mode = fault[0]
            if mode == "die":
                os._exit(1)
            if mode == "hang":
                _time.sleep(3600.0)
            if mode == "malformed":
                conn.send(("ok", None, [("not", "a", "record")]))
                continue
        try:
            records = [CrossShardEvent.from_wire(wire) for wire in wire_records]
            program.inject(records)
            produced = program.advance(bound, inclusive)
            reply_records = [record.to_wire() for record in produced]
            conn.send(("ok", program.next_time(), reply_records))
        except Exception as exc:
            conn.send(("error", f"shard {index} step failed: {exc!r}"))


class ProcessShardHandle:
    """One shard living in its own spawned worker process."""

    def __init__(
        self,
        index: int,
        hosts: Sequence[int],
        builder_ref: str,
        builder_args: Tuple[Any, ...],
        timeout_s: float = DEFAULT_STEP_TIMEOUT_S,
        fault: Optional[FaultSpec] = None,
    ) -> None:
        self.index = index
        self._hosts = tuple(hosts)
        self._timeout_s = timeout_s
        ctx = multiprocessing.get_context("spawn")
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self._conn: Connection = parent_conn
        self._proc = ctx.Process(
            target=_shard_worker_main,
            args=(child_conn, index, builder_ref, builder_args, fault),
            daemon=True,
            name=f"repro-shard-{index}",
        )
        self._proc.start()
        child_conn.close()
        reply = self._recv("startup")
        if reply[0] != "ready":
            self._shutdown()
            raise ShardError(
                f"shard {index} worker failed to start: {reply[1:]!r}"
            )

    # ------------------------------------------------------------------
    def _recv(self, what: str) -> Tuple[Any, ...]:
        """Bounded receive; any breach becomes a ShardError, never a hang."""
        try:
            if not self._conn.poll(self._timeout_s):
                self._shutdown()
                raise ShardError(
                    f"shard {self.index} worker did not answer {what} "
                    f"within {self._timeout_s:.0f}s"
                )
            reply = self._conn.recv()
        except ShardError:
            raise
        except (EOFError, OSError) as exc:
            exitcode = self._proc.exitcode
            self._shutdown()
            raise ShardError(
                f"shard {self.index} worker died during {what} "
                f"(exitcode={exitcode}): {exc!r}"
            ) from exc
        if not isinstance(reply, tuple) or not reply:
            self._shutdown()
            raise ShardError(
                f"shard {self.index} worker sent a malformed reply to "
                f"{what}: {reply!r}"
            )
        if reply[0] == "error":
            self._shutdown()
            raise ShardError(str(reply[1]))
        return tuple(reply)

    def begin_step(
        self,
        bound: float,
        inclusive: bool,
        records: Sequence[CrossShardEvent],
    ) -> None:
        wire = [record.to_wire() for record in records]
        try:
            self._conn.send(("step", bound, inclusive, wire))
        except (BrokenPipeError, OSError) as exc:
            exitcode = self._proc.exitcode
            self._shutdown()
            raise ShardError(
                f"shard {self.index} worker is gone "
                f"(exitcode={exitcode}): {exc!r}"
            ) from exc

    def finish_step(self) -> Tuple[Optional[float], List[CrossShardEvent]]:
        reply = self._recv("a window step")
        if reply[0] != "ok" or len(reply) != 3:
            self._shutdown()
            raise ShardError(
                f"shard {self.index} worker sent a malformed step reply: "
                f"{reply!r}"
            )
        _, next_time, wire_records = reply
        if next_time is not None and not isinstance(next_time, (int, float)):
            self._shutdown()
            raise ShardError(
                f"shard {self.index} worker reported a non-numeric next "
                f"event time: {next_time!r}"
            )
        if not isinstance(wire_records, list):
            self._shutdown()
            raise ShardError(
                f"shard {self.index} worker sent a malformed record batch: "
                f"{wire_records!r}"
            )
        try:
            records = [CrossShardEvent.from_wire(wire) for wire in wire_records]
        except ShardError as exc:
            self._shutdown()
            raise ShardError(f"shard {self.index}: {exc}") from exc
        return (None if next_time is None else float(next_time), records)

    def hosts(self) -> Sequence[int]:
        return self._hosts

    def finalize(self) -> Dict[str, Any]:
        try:
            self._conn.send(("finalize",))
        except (BrokenPipeError, OSError) as exc:
            self._shutdown()
            raise ShardError(
                f"shard {self.index} worker is gone: {exc!r}"
            ) from exc
        reply = self._recv("finalize")
        if reply[0] != "ok" or len(reply) != 2 or not isinstance(reply[1], dict):
            self._shutdown()
            raise ShardError(
                f"shard {self.index} worker sent a malformed finalize "
                f"reply: {reply!r}"
            )
        result: Dict[str, Any] = reply[1]
        return result

    # ------------------------------------------------------------------
    def _shutdown(self) -> None:
        """Best-effort teardown; idempotent, never raises."""
        try:
            self._conn.close()
        except OSError:
            pass
        if self._proc.is_alive():
            self._proc.terminate()
        self._proc.join(timeout=5.0)
        if self._proc.is_alive():  # pragma: no cover - last resort
            self._proc.kill()
            self._proc.join(timeout=5.0)

    def close(self) -> None:
        if not self._proc.is_alive():
            self._shutdown()
            return
        try:
            self._conn.send(("close",))
        except (BrokenPipeError, OSError):
            pass
        self._proc.join(timeout=5.0)
        self._shutdown()
