"""CPU-selection policies for softirq balancing (Section 4.3).

The paper's central design is hash-based two-random-choice selection
(Algorithm 1, ``get_falcon_cpu``):

* the **first choice** is ``hash_32(skb.hash + ifindex)`` modulo the
  Falcon CPU set — a uniformly random but *sticky* core per
  (flow, device), spreading stages without measuring load;
* if that core's load exceeds the threshold, the hash is re-hashed for a
  **second choice**, which is committed to regardless of its load — the
  compromise that avoids both persistent hotspots (static hashing) and
  load-fluctuation thrash (always chasing the least-loaded core).

``StaticHashBalancer`` (first choice only) and ``LeastLoadedBalancer``
(always chase the minimum) exist as the ablations the paper argues
against; Figure 16's experiment compares them.
"""

from __future__ import annotations

from typing import Dict, List, Protocol, Tuple

from repro.core.config import (
    POLICY_LEAST_LOADED,
    POLICY_STATIC,
    POLICY_TWO_CHOICE,
    FalconConfig,
)
from repro.hw.topology import Machine
from repro.kernel.hashing import hash_32


class Balancer(Protocol):
    """Selects a CPU from the Falcon set for the next softirq of ``n``
    consecutive packets of one flow.

    The choice is a function of ``skb_hash + ifindex`` and the loads the
    balancer reads, so it is the same for each of the ``n`` packets; a
    balancer adds ``n`` to every counter it keeps.
    """

    def select(
        self,
        machine: Machine,
        cpus: List[int],
        skb_hash: int,
        ifindex: int,
        n: int,
    ) -> int: ...


def _index(hash_value: int, n: int) -> int:
    """Map a 32-bit hash to a CPU slot using its *high* bits.

    ``hash_32`` is multiplicative, so its low bits are poorly mixed: with
    a small power-of-two CPU set, ``hash_32(h) % n`` is an affine
    function of ``h % n`` and the re-hash of Algorithm 1 line 25 would
    map half the slots back onto themselves — the second choice would be
    the first. Folding the high bits in first restores independence.
    """
    return ((hash_value >> 8) ^ (hash_value >> 20)) % n


def first_choice_cpu(cpus: List[int], skb_hash: int, ifindex: int) -> int:
    """Algorithm 1 lines 19–20: the sticky per-(flow, device) CPU."""
    return cpus[_index(hash_32(skb_hash + ifindex), len(cpus))]


def second_choice_cpu(cpus: List[int], skb_hash: int, ifindex: int) -> int:
    """Algorithm 1 lines 25–26: the double-hashed alternative."""
    first_hash = hash_32(skb_hash + ifindex)
    return cpus[_index(hash_32(first_hash), len(cpus))]


class StaticHashBalancer:
    """First choice only: hash (flow, device) to a fixed core.

    Deterministic and sticky — the ``static`` baseline in Figure 16 that
    cannot adapt when a flow suddenly intensifies.
    """

    def __init__(self, load_threshold: float = 1.0) -> None:
        self.load_threshold = load_threshold

    def select(
        self,
        machine: Machine,
        cpus: List[int],
        skb_hash: int,
        ifindex: int,
        n: int,
    ) -> int:
        return first_choice_cpu(cpus, skb_hash, ifindex)


class TwoChoiceBalancer:
    """The paper's policy: double hashing away from an overloaded core.

    Both choices are pure functions of ``skb_hash + ifindex`` and the CPU
    set, so each sum's pair is computed once and cached, as ONCache
    caches a per-flow decision. The cache belongs to one CPU set: a call
    with a different set empties it first, so no stale entry is read.
    """

    def __init__(self, load_threshold: float = 0.85) -> None:
        self.load_threshold = load_threshold
        self.second_choices = 0
        #: ``skb_hash + ifindex`` -> (first choice, second choice).
        self._choices: Dict[int, Tuple[int, int]] = {}
        #: A copy of the CPU set the cached choices were computed for.
        self._choices_cpus: List[int] = []

    def select(
        self,
        machine: Machine,
        cpus: List[int],
        skb_hash: int,
        ifindex: int,
        n: int,
    ) -> int:
        if cpus != self._choices_cpus:
            self._choices = {}
            self._choices_cpus = list(cpus)
        key = skb_hash + ifindex
        choices = self._choices.get(key)
        if choices is None:
            choices = self._choices[key] = (
                first_choice_cpu(cpus, skb_hash, ifindex),
                second_choice_cpu(cpus, skb_hash, ifindex),
            )
        first, second = choices
        if machine.cpus[first].load < self.load_threshold:
            return first
        # Second choice: re-hash. Committed to even if it is also busy,
        # which keeps the mapping stable and avoids load fluctuations.
        self.second_choices += n
        return second


class LeastLoadedBalancer:
    """Aggressive strawman: always pick the least-loaded Falcon CPU.

    The paper rejects this: per-packet load data is stale, so chasing the
    minimum causes migrations and load fluctuation. Included for the
    ablation benchmarks.
    """

    def __init__(self, load_threshold: float = 0.85) -> None:
        self.load_threshold = load_threshold

    def select(
        self,
        machine: Machine,
        cpus: List[int],
        skb_hash: int,
        ifindex: int,
        n: int,
    ) -> int:
        return min(cpus, key=lambda index: machine.cpus[index].load)


def make_balancer(config: FalconConfig) -> Balancer:
    """Instantiate the balancer the configuration names."""
    threshold = config.load_threshold
    if config.policy == POLICY_TWO_CHOICE:
        return TwoChoiceBalancer(threshold)
    if config.policy == POLICY_STATIC:
        return StaticHashBalancer(threshold)
    if config.policy == POLICY_LEAST_LOADED:
        return LeastLoadedBalancer(threshold)
    raise ValueError(f"unknown policy {config.policy!r}")
