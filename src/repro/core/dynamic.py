"""Dynamic softirq splitting — the paper's stated future work.

Section 6.4: *"we employ offline profiling to determine the functions
within a softirq that should be split and require the kernel to be
recompiled ... there is no way to selectively disable function-level
splitting while keeping the rest of Falcon running ... We are
investigating a dynamic method for function-level splitting."*

This module implements that method in the simulator. The stack is built
with the split transition in place, but the transition consults a
runtime switch (the Section 6.4 workaround of targeting the current core
is used while the split is *inactive*, so the split functions never
move). A controller samples the driver core's load on the kernel's timer
tick and flips the switch with hysteresis:

* activate when the driver core has been saturated (load above
  ``activate_threshold``) for ``patience`` consecutive samples — the
  Figure 9a condition under which splitting pays;
* deactivate when load falls below ``release_threshold`` — splitting is
  pure overhead for GRO-light traffic (the Figure 12b effect).
"""

from __future__ import annotations

from typing import Optional

from repro.hw.topology import Machine


class SplitSwitch:
    """The runtime flag the split transition consults."""

    __slots__ = ("active",)

    def __init__(self, active: bool = False) -> None:
        self.active = active


class DynamicSplitController:
    """Toggles GRO splitting from measured driver-core load."""

    def __init__(
        self,
        machine: Machine,
        switch: SplitSwitch,
        driver_cpu: int = 0,
        activate_threshold: float = 0.92,
        release_threshold: float = 0.60,
        patience: int = 3,
        sample_us: float = 500.0,
    ) -> None:
        if not 0.0 < release_threshold < activate_threshold <= 1.0:
            raise ValueError("need 0 < release < activate <= 1")
        if patience < 1:
            raise ValueError("patience must be >= 1")
        self.machine = machine
        self.switch = switch
        self.driver_cpu = driver_cpu
        self.activate_threshold = activate_threshold
        self.release_threshold = release_threshold
        self.patience = patience
        self.sample_us = sample_us
        self._hot_samples = 0
        self._started = False
        #: Transition counters for observability/tests.
        self.activations = 0
        self.deactivations = 0

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.machine.sim.schedule(self.sample_us, self._sample)

    def _sample(self) -> None:
        load = self.machine.cpus[self.driver_cpu].load
        if self.switch.active:
            if load < self.release_threshold:
                self.switch.active = False
                self.deactivations += 1
                self._hot_samples = 0
        else:
            if load >= self.activate_threshold:
                self._hot_samples += 1
                if self._hot_samples >= self.patience:
                    self.switch.active = True
                    self.activations += 1
                    self._hot_samples = 0
            else:
                self._hot_samples = 0
        self.machine.sim.schedule(self.sample_us, self._sample)


def attach_dynamic_splitting(
    stack,
    driver_cpu: int = 0,
    activate_threshold: float = 0.92,
    release_threshold: float = 0.60,
    patience: int = 3,
) -> DynamicSplitController:
    """Wire a controller to a stack built with ``split_gro=True``.

    The stack must have a Falcon instance with GRO splitting compiled in;
    the controller then owns the decision of *when* the split half
    actually moves to another core.
    """
    falcon = stack.falcon
    if falcon is None or not falcon.config.split_gro:
        raise ValueError(
            "dynamic splitting requires a Falcon stack built with split_gro=True"
        )
    switch = SplitSwitch(active=False)
    # Replace the static split selector with a switched one.
    split_stage = stack.stages.get("pnic")
    if split_stage is None or "pnic_gro" not in stack.stages:
        raise ValueError("stack has no split pnic stage")
    static_selector = falcon.selector(
        stack.stages["pnic_gro"].ifindex
    )

    def switched_selector(skb, current_cpu, n):
        if switch.active:
            return static_selector(skb, current_cpu, n)
        return current_cpu

    split_stage.exit.selector = switched_selector
    controller = DynamicSplitController(
        stack.machine,
        switch,
        driver_cpu=driver_cpu,
        activate_threshold=activate_threshold,
        release_threshold=release_threshold,
        patience=patience,
    )
    controller.start()
    return controller
