"""Shared machinery for the figure-reproduction experiments."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.core.config import FalconConfig
from repro.metrics.report import Table

#: The paper's three comparison cases (Section 6): native host network,
#: vanilla Docker overlay, Falcon-enabled overlay.
MODE_HOST = "Host"
MODE_CON = "Con"
MODE_FALCON = "Falcon"


def standard_modes() -> List[Tuple[str, dict]]:
    """(label, Testbed kwargs) for Host / Con / Falcon."""
    return [
        (MODE_HOST, dict(mode="host")),
        (MODE_CON, dict(mode="overlay")),
        (MODE_FALCON, dict(mode="overlay", falcon=FalconConfig())),
    ]


@dataclass
class ExperimentOutput:
    """Result of one figure reproduction."""

    figure: str
    title: str
    tables: List[Table] = field(default_factory=list)
    #: Raw series for programmatic checks: name -> list of (x, y) or rows.
    series: Dict[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        header = f"== {self.figure}: {self.title} =="
        return "\n\n".join([header] + [table.render() for table in self.tables])


def durations(quick: bool, full_ms: float = 25.0, warm_ms: float = 10.0):
    """``Testbed.run`` keyword arguments, scaled down for quick (smoke) runs."""
    if quick:
        return dict(warmup_ms=max(warm_ms / 2, 3.0), measure_ms=max(full_ms / 4, 4.0))
    return dict(warmup_ms=warm_ms, measure_ms=full_ms)
