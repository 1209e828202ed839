"""Measurement infrastructure.

This package turns raw simulator activity into the quantities the paper
reports: per-core CPU utilization broken down by kernel function
(:mod:`~repro.metrics.cpuacct`), interrupt counts
(:mod:`~repro.metrics.counters`), packet rates and latency percentiles
(:mod:`~repro.metrics.meters`), and text tables (:mod:`~repro.metrics.report`).
"""

from repro.metrics.cpuacct import CpuAccounting, CpuWindow
from repro.metrics.counters import InterruptCounters
from repro.metrics.meters import MeasurementWindow
from repro.metrics.report import Table, format_table
from repro.metrics.tracing import PacketTracer

__all__ = [
    "CpuAccounting",
    "CpuWindow",
    "InterruptCounters",
    "MeasurementWindow",
    "PacketTracer",
    "Table",
    "format_table",
]
