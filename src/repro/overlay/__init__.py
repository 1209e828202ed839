"""Container overlay-network control plane.

The data-plane mechanics (VXLAN encap/decap, bridge, veth) live in
:mod:`repro.kernel`; this package provides the orchestration-level
objects around them: containers with private IPs
(:mod:`~repro.overlay.container`) and hosts running a stack
(:mod:`~repro.overlay.host`).
"""

from repro.overlay.container import Container
from repro.overlay.host import Host

__all__ = ["Container", "Host"]
