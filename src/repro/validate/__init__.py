"""Correctness tooling: invariant monitors and golden traces.

Any run can opt in::

    from repro.validate import attach_monitor
    monitor = attach_monitor(stack)      # raises InvariantViolation on bugs

`repro validate` (see :mod:`repro.cli`) runs the two suites;
:mod:`repro.validate.harness` is the programmatic entry point.
"""

from repro.validate.golden import (
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
    run_golden_suite,
    run_invariant_scenario,
    run_invariant_suite,
    run_validation,
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
    "InvariantMonitor",
    "InvariantViolation",
    "SuiteOutcome",
    "TERMINAL_OUTCOMES",
    "attach_monitor",
    "check_goldens",
    "corrupt_conservation_ledger",
    "corrupt_interrupt_counter",
    "default_golden_dir",
    "diff_trace_docs",
    "drain_to_quiescence",
    "load_golden",
    "run_golden_scenario",
    "run_golden_suite",
    "run_invariant_scenario",
    "run_invariant_suite",
    "run_validation",
    "serialize_traces",
    "trace_doc_to_json",
    "write_golden",
]
