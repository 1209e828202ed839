"""Measurement primitives used by the metrics layer.

These are deliberately dependency-free (no numpy) so that the hot paths of
the simulator can record samples cheaply; the analysis layer may convert
to numpy arrays afterwards.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add
from typing import Dict, Iterable, List, Optional, Tuple


def fold_sum(values: Iterable[float]) -> float:
    """Add ``values`` left to right, rounding after every addition.

    This is what builtin ``sum`` does with floats up to Python 3.11.
    From 3.12 ``sum`` compensates its rounding, so the same run could
    report different floats on two interpreters. Model and report paths
    that add floats use this fold instead, which gives 3.11's result on
    every version.

    >>> fold_sum([0.1, 0.2, 0.3]) == (0.1 + 0.2) + 0.3
    True
    """
    return reduce(add, values, 0)


class Counter:
    """A named bag of monotonically increasing integer counters.

    Mirrors ``/proc/interrupts``-style accounting: callers bump named
    counters and later snapshot/diff them over a measurement window.
    """

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}

    def add(self, name: str, amount: int = 1) -> None:
        self._counts[name] = self._counts.get(name, 0) + amount

    def get(self, name: str) -> int:
        return self._counts.get(name, 0)

    def snapshot(self) -> Dict[str, int]:
        return dict(self._counts)

    def diff(self, earlier: Dict[str, int]) -> Dict[str, int]:
        """Counter deltas since ``earlier`` (a previous :meth:`snapshot`)."""
        result: Dict[str, int] = {}
        for name, value in self._counts.items():
            delta = value - earlier.get(name, 0)
            if delta:
                result[name] = delta
        return result

    def items(self) -> Iterable[Tuple[str, int]]:
        return self._counts.items()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self._counts!r})"


class LatencyRecorder:
    """Stores raw latency samples and answers percentile queries.

    Samples are kept in full (they are floats; even a million samples is
    only ~8 MB) so percentiles are exact, matching how sockperf reports
    its latency spectrum.
    """

    def __init__(self) -> None:
        self._samples: List[float] = []
        self._sorted: Optional[List[float]] = None
        # Running mean and sum of squared deviations (Welford's algorithm).
        self._mean = 0.0
        self._m2 = 0.0

    def record(self, value: float) -> None:
        samples = self._samples
        samples.append(value)
        self._sorted = None
        delta = value - self._mean
        self._mean += delta / len(samples)
        self._m2 += delta * (value - self._mean)

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def mean(self) -> float:
        return self._mean

    @property
    def stdev(self) -> float:
        count = len(self._samples)
        return math.sqrt(self._m2 / (count - 1)) if count > 1 else 0.0

    def percentile(self, pct: float) -> float:
        """Exact percentile using the nearest-rank method.

        ``pct`` is in [0, 100]. Returns 0.0 when no samples were recorded.
        """
        if not self._samples:
            return 0.0
        if not 0.0 <= pct <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {pct}")
        if self._sorted is None:
            self._sorted = sorted(self._samples)
        if pct == 0.0:
            return self._sorted[0]
        rank = math.ceil(pct / 100.0 * len(self._sorted))
        return self._sorted[rank - 1]

    def summary(self) -> Dict[str, float]:
        """The percentile set the paper reports (avg, p50, p90, p99, p99.9)."""
        return {
            "count": float(self.count),
            "avg": self.mean,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
            "p99.9": self.percentile(99.9),
            "max": self.percentile(100),
        }


class RateMeter:
    """Counts discrete events inside an explicit measurement window.

    The experiment harness opens the window after warm-up and closes it
    before drain, so transient start-up behaviour never pollutes the
    reported packet rates.
    """

    def __init__(self) -> None:
        self.count = 0
        self.bytes = 0
        self._window_start: Optional[float] = None
        self._window_end: Optional[float] = None
        self._open = False

    def open_window(self, now: float) -> None:
        self._window_start = now
        self._open = True
        self.count = 0
        self.bytes = 0

    def close_window(self, now: float) -> None:
        self._window_end = now
        self._open = False

    def record(self, nbytes: int = 0) -> None:
        if self._open:
            self.count += 1
            self.bytes += nbytes

    @property
    def window_us(self) -> float:
        if self._window_start is None or self._window_end is None:
            return 0.0
        return self._window_end - self._window_start

    def rate_per_sec(self) -> float:
        """Events per second over the closed window."""
        window = self.window_us
        if window <= 0:
            return 0.0
        return self.count / window * 1e6

    def gbps(self) -> float:
        """Goodput in gigabits per second over the closed window."""
        window = self.window_us
        if window <= 0:
            return 0.0
        return self.bytes * 8 / (window * 1e-6) / 1e9

