"""Falcon steering — the Algorithm 1 ``netif_rx`` / ``get_falcon_cpu`` pair.

:class:`FalconSteering` is consulted by every stage-transition point in
the stack. It implements the enable gate (line 6: Falcon runs only while
the average load of the Falcon CPU set is below ``FALCON_LOAD_THRESHOLD``)
and delegates CPU choice to the configured balancer (lines 17–27).

When Falcon is disabled — by configuration or by the load gate — the
transition falls back to the vanilla path: the packet stays on the
current core, which reproduces the serialized-softirq behaviour of the
stock overlay network.
"""

from __future__ import annotations

from functools import partial
from operator import attrgetter
from typing import Dict, List

from repro.core.balancing import make_balancer
from repro.core.config import FalconConfig
from repro.hw.cpu import Cpu
from repro.hw.topology import Machine
from repro.kernel.skb import Skb
from repro.kernel.stages import Selector
from repro.sim.stats import fold_sum

#: A core's recent load, read without a comprehension frame per call.
_LOAD = attrgetter("load")


class FalconSteering:
    """Per-host Falcon instance."""

    def __init__(self, machine: Machine, config: FalconConfig) -> None:
        config.validate(machine.num_cpus)
        self.machine = machine
        #: The run's :class:`~repro.sim.context.SimContext`; balancers
        #: needing randomness must draw named streams from it so two
        #: Falcon instances in one process stay independent.
        self.ctx = machine.ctx
        self.config = config
        self.balancer = make_balancer(config)
        #: The Falcon set's cores, looked up once for the load gate.
        self._falcon_cpus: List[Cpu] = [machine.cpus[index] for index in config.cpus]
        # --- statistics -------------------------------------------------
        #: Transitions steered by Falcon.
        self.steered = 0
        #: Transitions that fell back to the vanilla path (load gate).
        self.fallbacks = 0
        #: Steered transitions per device index — which FALCON point
        #: fired. With the flow cache on, hit packets skip the VXLAN
        #: transition but still pass the veth/fast-path one; this map is
        #: how tests assert the two mechanisms actually compose.
        self.steered_by_ifindex: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------
    def active(self) -> bool:
        """Line 6: is there room for parallelization right now?"""
        if not self.config.threshold_enabled:
            return True
        # The mean as a left-fold sum / len: the arithmetic the figure
        # digests were pinned with, so the gate flips at exactly the same
        # loads on every Python version.
        cpus = self._falcon_cpus
        return fold_sum(map(_LOAD, cpus)) / len(cpus) < self.config.load_threshold

    def select_cpu(
        self, ifindex: int, skb: Skb, current_cpu: int, n: int
    ) -> int:
        """The steering decision a stage-transition function makes.

        Returns the CPU whose backlog should receive the next stage of
        ``n`` consecutive packets of ``skb``'s flow: a Falcon CPU when
        Falcon is active, the current CPU (the vanilla ``netif_rx``
        behaviour) otherwise. Every counter grows by ``n``, as if each
        packet had been asked about in turn. The balancer is read from
        ``self`` on every call, because
        :func:`repro.core.fairshare.use_fair_share` swaps it after build.
        """
        if not self.active():
            self.fallbacks += n
            return current_cpu
        self.steered += n
        self.steered_by_ifindex[ifindex] = (
            self.steered_by_ifindex.get(ifindex, 0) + n
        )
        return self.balancer.select(
            self.machine, self.config.cpus, skb.hash, ifindex, n
        )

    def selector(self, ifindex: int) -> Selector:
        """Bind this steering instance to a device, for use as a
        :class:`~repro.kernel.stages.EnqueueTransition` selector.

        A ``partial`` binds the device index in C, so a steered run of
        packets pays one Python frame, ``select_cpu``'s own.
        """
        return partial(self.select_cpu, ifindex)

    def split_selector(self, ifindex: int, split_same_core: bool) -> Selector:
        """Selector for a *split* half-stage.

        ``split_same_core`` implements the Section 6.4 workaround: target
        the current core so the split function never actually moves.
        """
        if split_same_core:
            return _stay
        return self.selector(ifindex)


def _stay(skb: Skb, current_cpu: int, n: int) -> int:
    """The vanilla ``netif_rx`` target: the current core."""
    return current_cpu


class VanillaSteering:
    """The stock kernel's ``netif_rx``: always the current core.

    Used when building a vanilla-overlay stack so the transition points
    exist (they are part of the kernel) but never move packets.
    """

    def selector(self, ifindex: int) -> Selector:
        return _stay
