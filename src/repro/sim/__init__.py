"""Discrete-event simulation substrate.

The :mod:`repro.sim` package provides the foundation everything else in the
reproduction is built on: a deterministic event-driven simulator
(:class:`~repro.sim.engine.Simulator`), named deterministic random-number
streams (:class:`~repro.sim.rng.RngRegistry`), and measurement primitives
(:mod:`repro.sim.stats`).

Time is measured in **microseconds** throughout the code base; the helper
constants :data:`~repro.sim.clock.US`, :data:`~repro.sim.clock.MS` and
:data:`~repro.sim.clock.SEC` make conversions explicit.
"""

from repro.sim.clock import MS, NS, SEC, US
from repro.sim.context import SimContext
from repro.sim.engine import Simulator
from repro.sim.errors import SimulationError
from repro.sim.rng import RngRegistry
from repro.sim.stats import Counter, LatencyRecorder, RateMeter

__all__ = [
    "NS",
    "US",
    "MS",
    "SEC",
    "Simulator",
    "SimContext",
    "SimulationError",
    "RngRegistry",
    "Counter",
    "LatencyRecorder",
    "RateMeter",
]
