"""A host: machine + kernel stack + NIC link endpoint + containers.

``Host`` is the deployment-facing wrapper the examples and workloads use:
it owns the simulated hardware, the receive stack and the containers
scheduled onto it, mirroring one of the paper's two testbed servers.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.hw.link import Link
from repro.hw.topology import Machine
from repro.kernel.stack import NetworkStack, StackConfig
from repro.overlay.container import Container
from repro.sim.context import SimContext
from repro.sim.engine import Simulator
from repro.sim.errors import TopologyError
from repro.sim.rng import RngRegistry


class Host:
    """One server in the testbed."""

    def __init__(
        self,
        sim: Simulator,
        config: Optional[StackConfig] = None,
        num_cpus: int = 20,
        host_ip: int = 0x0A000001,
        name: str = "host",
        seed: int = 0,
    ) -> None:
        self.sim = sim
        self.name = name
        self.host_ip = host_ip
        #: The run context every component of this host shares; built
        #: here, once, and threaded through machine and stack.
        self.ctx = SimContext(sim=sim, rng=RngRegistry(seed), name=name)
        self.machine = Machine(sim, num_cpus=num_cpus, name=name, ctx=self.ctx)
        self.config = config or StackConfig()
        self.stack = NetworkStack(self.ctx, self.machine, self.config)
        self.containers: Dict[str, Container] = {}
        #: Ingress link (remote sender → this host's NIC); set by
        #: :meth:`attach_ingress`.
        self.ingress_link: Optional[Link] = None
        self._next_container_ip = 0xAC110002  # 172.17.0.2

    # ------------------------------------------------------------------
    # Container lifecycle
    # ------------------------------------------------------------------
    def launch_container(self, name: str) -> Container:
        if name in self.containers:
            raise TopologyError(f"container {name!r} already exists on {self.name}")
        container = Container(name, self._next_container_ip, self)
        self._next_container_ip += 1
        self.containers[name] = container
        return container

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach_ingress(self, bandwidth_gbps: float, propagation_us: float = 1.0) -> Link:
        """Create the ingress link remote senders transmit over."""
        self.ingress_link = Link(self.sim, bandwidth_gbps, propagation_us)
        return self.ingress_link

    def cpu_utilization(self) -> List[float]:
        return self.machine.loads()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Host {self.name} cpus={self.machine.num_cpus}>"
