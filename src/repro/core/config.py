"""Falcon configuration.

Mirrors the tunables the paper exposes: the Falcon CPU set
(``FALCON_CPUS``), the load threshold that enables/disables Falcon
(``FALCON_LOAD_THRESHOLD``, Section 6.1 finds 80–90% works best), the
balancing policy (two-choice vs the static ablation of Figure 16), and
whether GRO splitting is active (Section 5's "GRO-splitting").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.sim.errors import ConfigurationError

#: Balancing policies understood by :func:`repro.core.balancing.make_balancer`.
POLICY_TWO_CHOICE = "two_choice"
POLICY_STATIC = "static"
POLICY_LEAST_LOADED = "least_loaded"

_POLICIES = (POLICY_TWO_CHOICE, POLICY_STATIC, POLICY_LEAST_LOADED)


@dataclass
class FalconConfig:
    """All Falcon knobs, with the paper's defaults."""

    #: FALCON_CPUS — the cores softirq stages may be pipelined onto.
    #: Defaults avoid the conventional IRQ (0), RPS (1) and application
    #: (2) cores, matching the paper's use of dedicated cores for flow
    #: parallelization in the micro-benchmarks (Section 6.1).
    cpus: List[int] = field(default_factory=lambda: [3, 4, 5, 6])
    #: FALCON_LOAD_THRESHOLD. Falcon is bypassed when the average load of
    #: the Falcon CPU set is at or above this fraction (Algorithm 1 line 6).
    load_threshold: float = 0.85
    #: ``False`` means "always on" — the ablation of Figure 15.
    threshold_enabled: bool = True
    #: Balancing policy: two_choice (paper), static (first choice only),
    #: or least_loaded (an aggressive strawman for ablation).
    policy: str = POLICY_TWO_CHOICE
    #: Enable softirq splitting of the physical NIC's GRO work.
    split_gro: bool = False
    #: Workaround from Section 6.4: pin the split function back onto the
    #: core it came from (effectively disabling the split's parallelism).
    split_same_core: bool = False

    def validate(self, num_cpus: int) -> None:
        if not self.cpus:
            raise ConfigurationError("FALCON_CPUS must not be empty")
        for cpu in self.cpus:
            if not 0 <= cpu < num_cpus:
                raise ConfigurationError(
                    f"Falcon CPU {cpu} outside machine (0..{num_cpus - 1})"
                )
        if not 0.0 < self.load_threshold <= 1.0:
            raise ConfigurationError("load threshold must be in (0, 1]")
        if self.policy not in _POLICIES:
            raise ConfigurationError(
                f"unknown balancing policy {self.policy!r}; pick one of {_POLICIES}"
            )


@dataclass
class FlowCacheConfig:
    """ONCache-style per-flow fast-path cache knobs.

    The cache is a *datapath* selection orthogonal to Falcon's steering:
    a cache hit removes the device-chain work entirely, Falcon
    parallelizes whatever work remains. Both can be on at once.
    """

    #: LRU entry budget, per direction (the ingress and egress tables
    #: each hold this many flows).
    capacity: int = 128

    def validate(self) -> None:
        if self.capacity < 1:
            raise ConfigurationError("flow cache capacity must be >= 1")
