"""repro — a simulation-based reproduction of Falcon (EuroSys '21).

Falcon ("Parallelizing Packet Processing in Container Overlay Networks",
Lei, Munikar, Suo, Lu & Rao) pipelines the software interrupts of a
single overlay-network flow across CPU cores. The original artifact is a
Linux kernel patch; this library reproduces the system and its entire
evaluation on a discrete-event model of the kernel's receive pipeline.

Quickstart
----------
>>> from repro import FalconConfig, Testbed
>>> bed = Testbed(mode="overlay", falcon=FalconConfig(cpus=[1, 3, 4, 5]))
>>> flow = bed.add_udp_flow(16, clients=3)
>>> result = bed.run(warmup_ms=10, measure_ms=5)
>>> result.message_rate_pps > 0
True

See ``examples/quickstart.py`` for a guided tour and DESIGN.md for the
architecture.
"""

from repro.core.config import FalconConfig, FlowCacheConfig
from repro.core.falcon import FalconSteering
from repro.kernel.costs import CostModel
from repro.kernel.skb import FlowKey, Skb
from repro.kernel.stack import NetworkStack, StackConfig
from repro.overlay.host import Host
from repro.sim.engine import Simulator
from repro.workloads.sockperf import Testbed

__version__ = "1.0.0"

__all__ = [
    "CostModel",
    "FalconConfig",
    "FalconSteering",
    "FlowCacheConfig",
    "FlowKey",
    "Host",
    "NetworkStack",
    "Simulator",
    "Skb",
    "StackConfig",
    "Testbed",
    "__version__",
]
