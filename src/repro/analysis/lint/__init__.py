"""The analyzer's rules and the machinery they share.

:mod:`~repro.analysis.lint.core` holds the parsed-file model
(:class:`~repro.analysis.lint.core.FileContext`), the
:class:`~repro.analysis.lint.core.Rule` base and the meta findings. The
rules are the static counterpart of :mod:`repro.validate`: each catches
a determinism or DES-discipline violation that no run-time check
reliably sees, on every file before any workload runs.

=========  =============================================================
SIM101     no wall-clock reads (``time.time`` & co.)
SIM103     no ``id()``/``hash()``-derived ordering
SIM105     no module-level mutable counters (``itertools.count``,
           ``global``) in ``repro.{sim,kernel,overlay,workloads}``
DES201     no real concurrency primitives in simulated code
DES202     no blocking calls (sleep / I/O / subprocess) in simulated code
DES203     service times are named :class:`~repro.kernel.costs.CostModel`
           constants, never literals
LINT000/1  malformed pragmas / unparseable files (always on)
=========  =============================================================

Run them with ``repro check``; suppression pragmas are documented in
:mod:`repro.analysis.pragmas`.
"""
