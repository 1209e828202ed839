"""Analysis of the reproduction: closed-form models and static checks.

Two halves:

* :mod:`~repro.analysis.pipeline` — a closed-form companion to the
  simulator: from the same :class:`~repro.kernel.costs.CostModel` it
  derives each mode's per-stage service times, predicts the bottleneck
  stage and the saturation packet rate, and estimates queueing latency.
  The cross-validation tests assert simulator and analysis agree, which
  protects both against silent calibration drift.
* the static analyzer — six rules (:mod:`~repro.analysis.lint`)
  enforcing the simulator's determinism and DES-discipline contracts,
  one catalogue and runner (:mod:`~repro.analysis.runner`), and
  ``repro check`` (:mod:`~repro.analysis.check`) as its one entry point.
"""

from repro.analysis.pipeline import (
    PipelineModel,
    StageCost,
    mm1_waiting_time_us,
    predict_capacity_pps,
)

__all__ = [
    "PipelineModel",
    "StageCost",
    "predict_capacity_pps",
    "mm1_waiting_time_us",
]
