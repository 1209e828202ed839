"""Machine topology: cores + accounting + shared services.

A :class:`Machine` bundles the per-host hardware state every kernel
component needs: the simulator handle, the CPU array, CPU accounting,
interrupt counters, the locality model, and named RNG streams. The paper's
testbed machines (dual 10-core Xeon, hyperthreading on) are represented by
the default 20-core configuration.
"""

from __future__ import annotations

from typing import List, Optional

from repro.hw.cache import LocalityModel
from repro.hw.cpu import Cpu
from repro.metrics.counters import InterruptCounters
from repro.metrics.cpuacct import CpuAccounting
from repro.sim.context import SimContext
from repro.sim.engine import Simulator
from repro.sim.errors import ConfigurationError
from repro.sim.rng import RngRegistry


class Machine:
    """A host: an array of cores plus measurement plumbing."""

    def __init__(
        self,
        sim: Simulator,
        num_cpus: int = 20,
        cores_per_socket: int = 10,
        locality: Optional[LocalityModel] = None,
        rng: Optional[RngRegistry] = None,
        name: str = "host",
        ctx: Optional[SimContext] = None,
    ) -> None:
        if num_cpus < 1:
            raise ConfigurationError("machine needs at least one CPU")
        if ctx is None:
            # Legacy construction path: wrap the run state in a private
            # context so downstream code can rely on ``machine.ctx``.
            ctx = SimContext(sim=sim, rng=rng, name=name)
        self.ctx = ctx
        self.sim = ctx.sim
        self.name = name
        self.acct = CpuAccounting()
        self.interrupts = InterruptCounters()
        self.cpus: List[Cpu] = [
            Cpu(ctx.sim, index, self.acct) for index in range(num_cpus)
        ]
        self.cores_per_socket = cores_per_socket
        self.locality = locality or LocalityModel(cores_per_socket=cores_per_socket)
        self.rng = rng if rng is not None else ctx.rng
        ctx.register_monitored(self.interrupts, *self.cpus)

    @property
    def num_cpus(self) -> int:
        return len(self.cpus)

    def cpu(self, index: int) -> Cpu:
        return self.cpus[index]

    def socket_of(self, cpu_index: int) -> int:
        return cpu_index // self.cores_per_socket

    def loads(self) -> List[float]:
        """Recent per-core loads (refreshed by the kernel timer tick)."""
        return [cpu.load for cpu in self.cpus]
