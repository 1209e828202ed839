"""Timer tick and CPU load tracking.

Falcon "maintains the average system load in a global variable L_avg and
updates it every N timer interrupts within the global timer interrupt
handler (do_timer), via reading /proc/stat" (Section 5). This module is
that mechanism: a periodic tick samples each core's cumulative busy time,
derives a smoothed recent utilization, and publishes it as ``cpu.load`` —
the quantity Algorithm 1 consults both per-CPU (line 21) and averaged
(line 6).
"""

from __future__ import annotations

from typing import List, Optional

from repro.hw.topology import Machine
from repro.kernel.costs import CostModel
from repro.metrics.counters import TIMER


class LoadTracker:
    """Periodic per-CPU load sampling (the ``do_timer`` hook)."""

    def __init__(
        self,
        machine: Machine,
        costs: CostModel,
        tick_us: float = 500.0,
        alpha: float = 0.5,
        timer_cpu: int = 0,
    ) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if tick_us <= 0:
            raise ValueError("tick must be positive")
        self.machine = machine
        self.costs = costs
        self.tick_us = tick_us
        self.alpha = alpha
        self.timer_cpu = timer_cpu
        self._prev_busy: List[float] = [cpu.busy_us_total for cpu in machine.cpus]
        self._started = False
        self.ticks = 0

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.machine.sim.schedule(self.tick_us, self._tick)

    def _tick(self) -> None:
        machine = self.machine
        machine.interrupts.record(TIMER, self.timer_cpu)
        # The bookkeeping itself costs a little CPU on the timer core.
        machine.cpus[self.timer_cpu].submit(
            0, "do_timer", self.costs.do_timer.fixed
        )
        alpha = self.alpha
        for index, cpu in enumerate(machine.cpus):
            busy = cpu.busy_us_total
            instant = min((busy - self._prev_busy[index]) / self.tick_us, 1.0)
            self._prev_busy[index] = busy
            cpu.load = alpha * instant + (1.0 - alpha) * cpu.load
        self.ticks += 1
        machine.sim.schedule(self.tick_us, self._tick)
