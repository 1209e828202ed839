"""Correctness tooling: invariant monitors, differential & golden testing.

Any run can opt in::

    from repro.validate import attach_monitor
    monitor = attach_monitor(stack)      # raises InvariantViolation on bugs

`repro validate` (see :mod:`repro.cli`) wires the three suites together;
:mod:`repro.validate.harness` is the programmatic entry point.
"""

from repro.validate.differential import (
    DIFFERENTIAL_SCENARIOS,
    DiffReport,
    DiffScenario,
    SideRecord,
    compare_sides,
    run_differential,
)
from repro.validate.golden import (
    GOLDEN_SCENARIOS,
    check_goldens,
    default_golden_dir,
    diff_trace_docs,
    load_golden,
    run_golden_scenario,
    serialize_traces,
    trace_doc_to_json,
    write_golden,
)
from repro.validate.harness import (
    SuiteOutcome,
    drain_to_quiescence,
    run_differential_suite,
    run_golden_suite,
    run_invariant_suite,
    run_validation,
    sanitize_outcome,
)
from repro.validate.sanitize import (
    SANITIZE_ENV_VAR,
    OwnershipLedger,
    SanitizeReport,
    current_ledger,
    install_ledger,
    reset_ledger,
    sanitize_enabled,
    sanitizing,
)
from repro.validate.invariants import (
    TERMINAL_OUTCOMES,
    InvariantMonitor,
    InvariantViolation,
    attach_monitor,
    corrupt_conservation_ledger,
    corrupt_interrupt_counter,
)

__all__ = [
    "DIFFERENTIAL_SCENARIOS",
    "DiffReport",
    "DiffScenario",
    "GOLDEN_SCENARIOS",
    "InvariantMonitor",
    "InvariantViolation",
    "OwnershipLedger",
    "SANITIZE_ENV_VAR",
    "SanitizeReport",
    "SideRecord",
    "SuiteOutcome",
    "TERMINAL_OUTCOMES",
    "attach_monitor",
    "check_goldens",
    "compare_sides",
    "corrupt_conservation_ledger",
    "corrupt_interrupt_counter",
    "current_ledger",
    "default_golden_dir",
    "diff_trace_docs",
    "drain_to_quiescence",
    "install_ledger",
    "load_golden",
    "reset_ledger",
    "run_differential",
    "run_differential_suite",
    "run_golden_scenario",
    "run_golden_suite",
    "run_invariant_suite",
    "run_validation",
    "sanitize_enabled",
    "sanitize_outcome",
    "sanitizing",
    "serialize_traces",
    "trace_doc_to_json",
    "write_golden",
]
