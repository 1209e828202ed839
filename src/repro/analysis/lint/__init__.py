"""The ``lint`` rule family and the machinery every family shares.

:mod:`~repro.analysis.lint.core` holds the parsed-file model
(:class:`~repro.analysis.lint.core.FileContext`,
:class:`~repro.analysis.lint.core.Project`), the
:class:`~repro.analysis.lint.core.Rule` and
:class:`~repro.analysis.lint.core.FamilyRule` bases and the meta
findings. The family's own rules are the static counterpart of
:mod:`repro.validate`: where the invariant monitors catch a determinism
or serialization violation *when a workload executes it*, these catch
the same contract violations on every file before any workload runs.

=========  =============================================================
SIM101     no wall-clock reads (``time.time`` & co.)
SIM102     all randomness via :class:`repro.sim.rng.RngRegistry` streams
SIM103     no ``id()``/``hash()``-derived ordering
SIM104     no set iteration feeding the event scheduler
SIM105     no module-level mutable counters (``itertools.count``,
           ``global``) in ``repro.{sim,kernel,overlay,workloads}``
DES201     no real concurrency primitives in simulated code
DES202     no blocking calls (sleep / I/O / subprocess) in simulated code
DES203     service times are named :class:`~repro.kernel.costs.CostModel`
           constants, never literals
RACE301    cross-core access to per-CPU structures must route through
           the serialization primitives (``raise_net_rx`` /
           ``enqueue_backlog`` / ``schedule`` / ``submit``)
LINT000/1  malformed pragmas / unparseable files (always on)
=========  =============================================================

Run every family with ``repro check``; suppression pragmas are
documented in :mod:`repro.analysis.pragmas`.
"""
