"""Windowed measurement orchestration.

Experiments run in two phases: a warm-up (queues fill, loads stabilize,
Falcon's load tracker converges) and a measurement window. A
:class:`MeasurementWindow` snapshots every counter at the window edges so
results contain steady-state behaviour only — the same discipline the
paper's fixed-rate experiments use.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.metrics.cpuacct import CpuWindow
from repro.sim.stats import LatencyRecorder, RateMeter


class MeasurementWindow:
    """Snapshot bracket around a measurement interval."""

    def __init__(self, machine, stack) -> None:
        self.machine = machine
        self.stack = stack
        self.rate = RateMeter()
        self.latency = LatencyRecorder()
        self.cpu: Optional[CpuWindow] = None
        self._interrupts_at_open: Dict[str, int] = {}
        self._drops_at_open: Dict[str, int] = {}
        self._softirq_raises_at_open = 0
        self._handler_runs_at_open = 0
        self._stage_execs_at_open: Dict[str, int] = {}
        self.opened = False
        self.closed = False

    # ------------------------------------------------------------------
    def open(self) -> None:
        now = self.machine.sim.now
        self.cpu = CpuWindow(self.machine.acct, start_time=now)
        self._interrupts_at_open = self.machine.interrupts.snapshot()
        self._drops_at_open = dict(self.stack.drop_counts())
        self._softirq_raises_at_open = self.stack.softnet.softirq_raises
        self._handler_runs_at_open = self.stack.softnet.handler_runs
        self._stage_execs_at_open = dict(self.stack.softnet.stage_executions)
        self.rate.open_window(now)
        self.opened = True

    def close(self) -> None:
        now = self.machine.sim.now
        assert self.cpu is not None, "close() before open()"
        self.cpu.close(now)
        self.rate.close_window(now)
        self.closed = True

    # ------------------------------------------------------------------
    # Delivery hook — wire this as the socket's on_message callback (or
    # call it from one).
    # ------------------------------------------------------------------
    def on_message(self, socket, skb, latency_us: float) -> None:
        if not self.opened or self.closed:
            return
        self.rate.record(skb.msg_size)
        self.latency.record(latency_us)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def interrupt_deltas(self) -> Dict[str, int]:
        return self.machine.interrupts.diff(self._interrupts_at_open)

    def drop_deltas(self) -> Dict[str, int]:
        current = self.stack.drop_counts()
        return {
            key: current[key] - self._drops_at_open.get(key, 0) for key in current
        }

    def softirq_raise_delta(self) -> int:
        return self.stack.softnet.softirq_raises - self._softirq_raises_at_open

    def handler_run_delta(self) -> int:
        return self.stack.softnet.handler_runs - self._handler_runs_at_open

    def stage_execution_deltas(self) -> Dict[str, int]:
        current = self.stack.softnet.stage_executions
        return {
            name: current[name] - self._stage_execs_at_open.get(name, 0)
            for name in current
        }

