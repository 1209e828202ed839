"""Per-CPU, per-function busy-time accounting.

This is the simulator's equivalent of ``perf`` + flamegraphs + ``mpstat``:
every work item executed on a CPU is attributed to a *label* (the kernel
function name, e.g. ``napi_gro_receive``) and an execution *context*
(hardirq / softirq / user). The experiment harness snapshots the
accounting at window boundaries and reports utilization exactly the way
Figures 5, 6, 9a, 11 and 19 of the paper do.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.sim.stats import fold_sum

#: Execution contexts, ordered by dispatch priority (lower = higher prio).
HARDIRQ = 0
SOFTIRQ = 1
USER = 2

CONTEXT_NAMES = {HARDIRQ: "hardirq", SOFTIRQ: "softirq", USER: "user"}


class _CpuRecord:
    """One CPU's sums: ``{label: µs}``, µs per context, and busy µs."""

    __slots__ = ("labels", "contexts", "busy")

    def __init__(self) -> None:
        self.labels: Dict[str, float] = {}
        #: Indexed by context (``HARDIRQ``, ``SOFTIRQ``, ``USER``).
        self.contexts: List[float] = [0.0, 0.0, 0.0]
        self.busy = 0.0

    def copy(self) -> "_CpuRecord":
        record = _CpuRecord()
        record.labels = dict(self.labels)
        record.contexts = list(self.contexts)
        record.busy = self.busy
        return record


class CpuAccounting:
    """Accumulates busy microseconds per (cpu, label) and per (cpu, context).

    Each CPU has one record (:class:`_CpuRecord`) holding its label map,
    its per-context sums and its busy sum, so a charge looks up one
    CPU-keyed map, and the hot path never builds a ``(cpu, label)`` or
    ``(cpu, context)`` key. Every sum starts at ``0.0`` and gets each
    duration added in charge order. ``_label_order`` lists each
    ``(cpu, label)`` pair once, in the order it was first charged:
    :meth:`total_by_label` walks it, so its sums are added in the same
    order, and its keys come out in the same order, as a flat map keyed
    by ``(cpu, label)`` would give.
    """

    def __init__(self) -> None:
        self._cpus: Dict[int, _CpuRecord] = {}
        self._label_order: List[Tuple[int, str]] = []

    def charge(self, cpu: int, context: int, label: str, duration: float) -> None:
        """Attribute ``duration`` µs of busy time."""
        try:
            record = self._cpus[cpu]
        except KeyError:
            record = self._cpus[cpu] = _CpuRecord()
        labels = record.labels
        try:
            labels[label] += duration
        except KeyError:
            # First charge of this pair: start from 0.0.
            labels[label] = 0.0 + duration
            self._label_order.append((cpu, label))
        record.contexts[context] += duration
        record.busy += duration

    def charge_items(
        self, cpu: int, context: int, names: List[str], costs: List[float]
    ) -> float:
        """Charge ``costs[i]`` µs to label ``names[i]``; return their sum.

        The totals come out bit-identical to one :meth:`charge` per pair:
        each cost is added to the per-label, per-context and per-CPU sums
        in order. Adding the item's total once instead would reassociate
        the float sums, and per-CPU busy time feeds ``cpu.load`` and so
        Falcon's steering. The sums are plain ``+=`` in this loop: on
        Python 3.11 that is faster than ``functools.reduce(operator.add,
        ...)``, and ``sum`` would not do, because from 3.12 it is
        compensated.
        """
        if not names:
            # Per-pair charging would create no record either.
            return 0.0
        try:
            record = self._cpus[cpu]
        except KeyError:
            record = self._cpus[cpu] = _CpuRecord()
        labels = record.labels
        contexts = record.contexts
        context_us = contexts[context]
        busy = record.busy
        total = 0.0
        for label, duration in zip(names, costs):
            try:
                labels[label] += duration
            except KeyError:
                # First charge of this pair: start from 0.0 as charge does.
                labels[label] = 0.0 + duration
                self._label_order.append((cpu, label))
            context_us += duration
            busy += duration
            total += duration
        contexts[context] = context_us
        record.busy = busy
        return total

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def busy_us(self, cpu: int) -> float:
        record = self._cpus.get(cpu)
        return 0.0 if record is None else record.busy

    def busy_us_label(self, cpu: int, label: str) -> float:
        record = self._cpus.get(cpu)
        return 0.0 if record is None else record.labels.get(label, 0.0)

    def busy_us_context(self, cpu: int, context: int) -> float:
        record = self._cpus.get(cpu)
        return 0.0 if record is None else record.contexts[context]

    def total_by_label(self) -> Dict[str, float]:
        """Busy µs per label summed over all CPUs (flamegraph view)."""
        records = self._cpus
        totals: Dict[str, float] = {}
        for cpu, label in self._label_order:
            totals[label] = totals.get(label, 0.0) + records[cpu].labels[label]
        return totals

    def cpus(self) -> Iterable[int]:
        return sorted(self._cpus)

    def snapshot(self) -> "CpuAccounting":
        """Deep copy for window-boundary bookkeeping."""
        copy = CpuAccounting()
        copy._cpus = {cpu: record.copy() for cpu, record in self._cpus.items()}
        copy._label_order = list(self._label_order)
        return copy


class CpuWindow:
    """Utilization over an explicit window, computed from two snapshots.

    >>> acct = CpuAccounting()
    >>> acct.charge(0, SOFTIRQ, "ip_rcv", 500.0)
    >>> window = CpuWindow(acct, start_time=0.0)
    >>> acct.charge(0, SOFTIRQ, "ip_rcv", 250.0)
    >>> window.close(1000.0)
    >>> window.utilization(0)
    0.25
    """

    def __init__(self, acct: CpuAccounting, start_time: float) -> None:
        self._acct = acct
        self._start = acct.snapshot()
        self.start_time = start_time
        self.end_time: float = start_time

    def close(self, end_time: float) -> None:
        self._end = self._acct.snapshot()
        self.end_time = end_time

    @property
    def elapsed_us(self) -> float:
        return max(self.end_time - self.start_time, 0.0)

    def busy_us(self, cpu: int) -> float:
        return self._end.busy_us(cpu) - self._start.busy_us(cpu)

    def utilization(self, cpu: int) -> float:
        if self.elapsed_us <= 0:
            return 0.0
        return self.busy_us(cpu) / self.elapsed_us

    def utilization_context(self, cpu: int, context: int) -> float:
        if self.elapsed_us <= 0:
            return 0.0
        delta = self._end.busy_us_context(cpu, context) - self._start.busy_us_context(
            cpu, context
        )
        return delta / self.elapsed_us

    def utilization_label(self, cpu: int, label: str) -> float:
        if self.elapsed_us <= 0:
            return 0.0
        delta = self._end.busy_us_label(cpu, label) - self._start.busy_us_label(
            cpu, label
        )
        return delta / self.elapsed_us

    def label_shares(self) -> Dict[str, float]:
        """Fraction of total busy time per label (flamegraph shares)."""
        end_totals = self._end.total_by_label()
        start_totals = self._start.total_by_label()
        deltas = {
            label: end_totals.get(label, 0.0) - start_totals.get(label, 0.0)
            for label in end_totals
        }
        total = fold_sum(value for value in deltas.values() if value > 0)
        if total <= 0:
            return {}
        return {
            label: value / total
            for label, value in sorted(deltas.items(), key=lambda kv: -kv[1])
            if value > 0
        }
