"""Arrival processes for traffic generation.

Each process answers one question: given the last send at time *t*, when
is the next message due? All of them answer it through one signature,
``next_gap_us(rng, now_us)``; processes whose rate does not vary over
time ignore ``now_us``. Deterministic (CBR) arrivals reproduce
sockperf's paced mode; Poisson arrivals model independent clients;
:class:`HotspotSchedule` reproduces the adaptability test of Figure 16,
where one flow's intensity suddenly increases to create a hotspot.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Tuple


class ConstantRate:
    """Constant-bit-rate arrivals at ``rate_pps`` messages per second."""

    def __init__(self, rate_pps: float) -> None:
        if rate_pps <= 0:
            raise ValueError("rate must be positive")
        self.interval_us = 1e6 / rate_pps

    def next_gap_us(self, rng: random.Random, now_us: float) -> float:
        return self.interval_us


class PoissonRate:
    """Poisson arrivals with mean ``rate_pps``."""

    def __init__(self, rate_pps: float) -> None:
        if rate_pps <= 0:
            raise ValueError("rate must be positive")
        self.mean_interval_us = 1e6 / rate_pps

    def next_gap_us(self, rng: random.Random, now_us: float) -> float:
        return rng.expovariate(1.0 / self.mean_interval_us)


class Saturating:
    """Back-to-back sending: the next message leaves as soon as the
    sender finishes the previous one (sockperf's max-rate stress mode)."""

    def next_gap_us(self, rng: random.Random, now_us: float) -> float:
        return 0.0


class HotspotSchedule:
    """A rate that steps between a base and a burst level over time.

    ``phases`` is a list of ``(start_us, rate_pps)`` entries sorted by
    start time; the rate in force is the last phase whose start has
    passed. Used to suddenly intensify one flow (Figure 16).
    """

    def __init__(self, phases: List[Tuple[float, float]]) -> None:
        if not phases:
            raise ValueError("need at least one phase")
        starts = [start for start, _rate in phases]
        if starts != sorted(starts):
            raise ValueError("phases must be sorted by start time")
        self.phases = phases

    def rate_at(self, now_us: float) -> float:
        rate = self.phases[0][1]
        for start, phase_rate in self.phases:
            if now_us >= start:
                rate = phase_rate
            else:
                break
        return rate

    def next_gap_us(self, rng: random.Random, now_us: float) -> float:
        return 1e6 / self.rate_at(now_us)
