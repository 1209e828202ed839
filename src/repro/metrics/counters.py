"""Interrupt counters — the simulator's ``/proc/interrupts``.

Tracks the interrupt classes the paper's Figure 4 compares:

* ``hardirq``   — NIC hardware interrupts,
* ``NET_RX``    — network-receive softirq raises,
* ``RES``       — rescheduling IPIs (raised when a softirq is queued on a
  *remote* CPU and that CPU must be poked),
* ``CAL``       — function-call IPIs (not used by the rx path but kept for
  completeness),
* ``TIMER``     — local timer interrupts.

Counts are kept both globally and per CPU.
"""

from __future__ import annotations

from typing import Dict

HARDIRQ = "hardirq"
NET_RX = "NET_RX"
NET_TX = "NET_TX"
RES = "RES"
CAL = "CAL"
TIMER = "TIMER"

KNOWN_KINDS = (HARDIRQ, NET_RX, NET_TX, RES, CAL, TIMER)


class InterruptCounters:
    """Per-CPU and global interrupt counters."""

    def __init__(self) -> None:
        self._totals: Dict[str, int] = {}
        self._per_cpu: Dict[int, Dict[str, int]] = {}
        #: Optional :class:`repro.validate.InvariantMonitor` hook.
        self.monitor = None

    def record(self, kind: str, cpu: int, amount: int = 1) -> None:
        if self.monitor is not None:
            self.monitor.on_counter_record(kind, cpu, amount)
        try:
            self._totals[kind] += amount
        except KeyError:
            self._totals[kind] = amount
        try:
            self._per_cpu[cpu][kind] += amount
        except KeyError:
            # The CPU or the kind is new: either way the count starts here.
            self._per_cpu.setdefault(cpu, {})[kind] = amount

    def total(self, kind: str) -> int:
        return self._totals.get(kind, 0)

    def on_cpu(self, kind: str, cpu: int) -> int:
        per_cpu = self._per_cpu.get(cpu)
        return per_cpu.get(kind, 0) if per_cpu else 0

    def snapshot(self) -> Dict[str, int]:
        return dict(self._totals)

    def diff(self, earlier: Dict[str, int]) -> Dict[str, int]:
        """Global deltas since ``earlier`` (a previous :meth:`snapshot`);
        kinds that did not change are left out."""
        result: Dict[str, int] = {}
        for kind, value in self._totals.items():
            delta = value - earlier.get(kind, 0)
            if delta:
                result[kind] = delta
        return result
