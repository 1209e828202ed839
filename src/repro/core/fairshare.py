"""Tenant-fair CPU allocation for Falcon — the paper's open problem.

Section 6.4: *"Falcon's effectiveness depends on access to idle CPU
cycles for parallelization. In a multiple-user environment, policies on
how to fairly allocate cycles for parallelizing each user's flows need
to be further developed."*

This module develops one such policy: **weighted partitioning of
FALCON_CPUS**. Each tenant is assigned a contiguous slice of the Falcon
CPU set proportional to its weight; a tenant's softirq stages are
steered (with the usual two-choice rule) only within its own slice, so
one tenant's elephant flows cannot consume the cycles another tenant's
parallelization depends on. Flows of unregistered tenants fall back to
the full set (best effort).

Usage::

    steering = stack.falcon
    fair = FairShareBalancer(FalconConfig(...).load_threshold)
    fair.set_tenants({"gold": 3, "bronze": 1}, steering.config.cpus)
    fair.assign_flow(flow, "gold")
    steering.balancer = fair
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.balancing import _index
from repro.kernel.hashing import hash_32
from repro.kernel.skb import FlowKey
from repro.sim.errors import ConfigurationError


def partition_cpus(
    cpus: Sequence[int], weights: Dict[str, float]
) -> Dict[str, List[int]]:
    """Split a CPU list into per-tenant slices proportional to weight.

    Every tenant receives at least one CPU; remainders go to the heaviest
    tenants first (largest-remainder method). Deterministic: tenants are
    processed in sorted-name order.

    >>> partition_cpus([3, 4, 5, 6], {"a": 3, "b": 1})
    {'a': [3, 4, 5], 'b': [6]}
    """
    if not weights:
        raise ConfigurationError("need at least one tenant")
    if len(cpus) < len(weights):
        raise ConfigurationError(
            f"{len(weights)} tenants need at least that many CPUs, got {len(cpus)}"
        )
    if any(weight <= 0 for weight in weights.values()):
        raise ConfigurationError("tenant weights must be positive")
    total = sum(weights.values())
    names = sorted(weights)
    ideal = {name: weights[name] / total * len(cpus) for name in names}
    # Floor of the ideal share, but at least one CPU per tenant.
    counts = {name: max(int(ideal[name]), 1) for name in names}
    # Largest-remainder adjustment to make the counts sum to len(cpus).
    while sum(counts.values()) < len(cpus):
        name = max(names, key=lambda n: (ideal[n] - counts[n], weights[n], n))
        counts[name] += 1
    while sum(counts.values()) > len(cpus):
        candidates = [name for name in names if counts[name] > 1]
        name = min(
            candidates, key=lambda n: (ideal[n] - counts[n], weights[n], n)
        )
        counts[name] -= 1
    partitions: Dict[str, List[int]] = {}
    cursor = 0
    for name in names:
        partitions[name] = list(cpus[cursor : cursor + counts[name]])
        cursor += counts[name]
    return partitions


class FairShareBalancer:
    """Two-choice balancing confined to per-tenant CPU partitions."""

    def __init__(self, load_threshold: float = 0.85) -> None:
        self.load_threshold = load_threshold
        self._partitions: Dict[str, List[int]] = {}
        self._tenant_by_flow_hash: Dict[int, str] = {}
        self.second_choices = 0
        self.unassigned_selections = 0

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def set_tenants(
        self, weights: Dict[str, float], cpus: Sequence[int]
    ) -> Dict[str, List[int]]:
        self._partitions = partition_cpus(cpus, weights)
        return dict(self._partitions)

    def assign_flow(self, flow: FlowKey, tenant: str) -> None:
        if tenant not in self._partitions:
            raise ConfigurationError(f"unknown tenant {tenant!r}")
        self._tenant_by_flow_hash[flow.hash] = tenant

    def partition_of(self, tenant: str) -> List[int]:
        return list(self._partitions[tenant])

    # ------------------------------------------------------------------
    # Balancer protocol (see repro.core.balancing)
    # ------------------------------------------------------------------
    def select(
        self, machine, cpus: List[int], skb_hash: int, ifindex: int, n: int
    ) -> int:
        tenant = self._tenant_by_flow_hash.get(skb_hash)
        if tenant is None:
            self.unassigned_selections += n
            pool = cpus
        else:
            pool = self._partitions[tenant]
        first_hash = hash_32(skb_hash + ifindex)
        cpu = pool[_index(first_hash, len(pool))]
        if machine.cpus[cpu].load < self.load_threshold:
            return cpu
        self.second_choices += n
        return pool[_index(hash_32(first_hash), len(pool))]


def use_fair_share(
    steering, weights: Dict[str, float]
) -> FairShareBalancer:
    """Swap a stack's Falcon balancer for a tenant-fair one.

    Returns the balancer so flows can be assigned:
    ``use_fair_share(stack.falcon, {"a": 1, "b": 1}).assign_flow(flow, "a")``.
    """
    balancer = FairShareBalancer(steering.config.load_threshold)
    balancer.set_tenants(weights, steering.config.cpus)
    steering.balancer = balancer
    return balancer
