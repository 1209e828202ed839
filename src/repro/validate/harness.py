"""The `repro validate` driver: the invariant and golden suites.

Each suite returns :class:`SuiteOutcome` rows; the CLI prints them and
exits non-zero when anything failed. Every run is a named entry of
:mod:`repro.scenarios`: the invariant suite runs its ``INVARIANTS``
(vanilla overlay, Falcon, GRO splitting, host mode, fragmented UDP)
under the monitor and finishes each with a strict quiescent conservation
check; the golden suite runs its ``GOLDEN`` entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.validate.golden import check_goldens
from repro.validate.invariants import InvariantMonitor, InvariantViolation

#: Simulated time slice used while draining a run to quiescence.
_DRAIN_SLICE_US = 777.0
_DRAIN_MAX_SLICES = 64


@dataclass
class SuiteOutcome:
    """One validation scenario's verdict."""

    suite: str
    name: str
    ok: bool
    details: List[str] = field(default_factory=list)

    def render(self) -> str:
        status = "ok" if self.ok else "FAIL"
        head = f"[{self.suite}] {self.name}: {status}"
        if not self.details:
            return head
        return head + "\n" + "\n".join(f"    {line}" for line in self.details)


# ----------------------------------------------------------------------
# Invariant suite
# ----------------------------------------------------------------------
def drain_to_quiescence(monitor: InvariantMonitor) -> bool:
    """Run the sim in slices until the pipeline is idle (or give up).

    Slices are deliberately offset from the 500 µs timer tick so audits
    don't always land mid-``do_timer``.
    """
    sim = monitor.stack.sim
    for _ in range(_DRAIN_MAX_SLICES):
        if monitor.pipeline_idle():
            return True
        sim.run(until=sim.now + _DRAIN_SLICE_US)
    return monitor.pipeline_idle()


def run_invariant_scenario(name: str) -> SuiteOutcome:
    """Run catalogue entry ``name`` monitored, then drain and audit it."""
    from repro import scenarios

    entry = scenarios.SCENARIOS[name]
    bed = scenarios.build(name)
    monitor = InvariantMonitor().attach(bed.stack)
    details: List[str] = []
    try:
        bed.run(warmup_ms=entry.warmup_ms, measure_ms=entry.measure_ms)
        if not drain_to_quiescence(monitor):
            details.append("pipeline failed to quiesce after the senders stopped")
        monitor.check_conservation(strict=True)
    except InvariantViolation as violation:
        details.append(str(violation))
    finally:
        monitor.detach()
    ok = not details
    if ok:
        details.append(
            f"{monitor.generated} packets conserved, {monitor.audits} audits, "
            f"{monitor.checks_passed} checks"
        )
    return SuiteOutcome("invariants", name, ok, details)


def run_invariant_suite() -> List[SuiteOutcome]:
    from repro import scenarios

    return [run_invariant_scenario(name) for name in scenarios.INVARIANTS]


# ----------------------------------------------------------------------
# Golden suite
# ----------------------------------------------------------------------
def run_golden_suite(regen: bool = False) -> List[SuiteOutcome]:
    detail = "golden regenerated" if regen else "trace matches golden"
    return [
        SuiteOutcome("golden", name, not diffs, diffs or [detail])
        for name, diffs in sorted(check_goldens(regen=regen).items())
    ]


# ----------------------------------------------------------------------
# Entry point used by the CLI
# ----------------------------------------------------------------------
def run_validation(
    suites: str = "all", regen_goldens: bool = False
) -> List[SuiteOutcome]:
    outcomes: List[SuiteOutcome] = []
    if suites in ("all", "invariants"):
        outcomes.extend(run_invariant_suite())
    if suites in ("all", "golden"):
        outcomes.extend(run_golden_suite(regen=regen_goldens))
    return outcomes
