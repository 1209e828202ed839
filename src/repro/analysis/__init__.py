"""The static analyzer.

Six rules (:mod:`~repro.analysis.lint`) enforce the simulator's
determinism and DES-discipline contracts, one catalogue and runner
(:mod:`~repro.analysis.runner`) applies them, and ``repro check``
(:mod:`~repro.analysis.check`) is its one entry point.
"""
