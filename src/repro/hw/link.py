"""Point-to-point Ethernet link model.

A link serializes frames at its line rate and adds a small propagation
delay. The two testbed links in the paper — Intel X550T 10GbE and
Mellanox ConnectX-5 100GbE — differ only in bandwidth for the purposes of
the evaluation; the paper's Figure 2 shows the overlay penalty is masked
when the 10G link is the bottleneck and exposed at 100G.

On-wire overhead (Ethernet header + FCS + preamble + IFG = 38 bytes, plus
IP/UDP headers and, for overlay traffic, the 50-byte VXLAN encapsulation)
is accounted for by the caller via the frame size it passes in.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.sim.engine import Simulator

#: Ethernet framing overhead per packet on the wire (preamble 8 + FCS 4 +
#: inter-frame gap 12 + MAC header 14 bytes).
ETHERNET_OVERHEAD_BYTES = 38


class Link:
    """Unidirectional serializing link.

    >>> from repro.sim import Simulator
    >>> sim = Simulator()
    >>> link = Link(sim, bandwidth_gbps=10.0, propagation_us=0.0)
    >>> out = []
    >>> link.send(1250, lambda: out.append(sim.now))   # 1250 B = 1 µs at 10G
    >>> link.send(1250, lambda: out.append(sim.now))
    >>> sim.run()
    >>> out
    [1.0, 2.0]
    """

    def __init__(
        self,
        sim: Simulator,
        bandwidth_gbps: float,
        propagation_us: float = 1.0,
    ) -> None:
        if bandwidth_gbps <= 0:
            raise ValueError("bandwidth must be positive")
        if propagation_us < 0:
            raise ValueError("propagation delay must be >= 0")
        self.sim = sim
        self.bandwidth_gbps = bandwidth_gbps
        self.propagation_us = propagation_us
        self._next_free = 0.0
        self.frames_sent = 0
        self.bytes_sent = 0

    def send(self, nbytes: int, deliver: Callable[..., Any], *args: Any) -> float:
        """Transmit a frame; call ``deliver(*args)`` when it fully arrives.

        Returns the arrival timestamp. Frames queue behind each other at
        the sender (FIFO), modelling the NIC's transmit serialization.
        """
        sim = self.sim
        now = sim.now
        next_free = self._next_free
        start = now if now >= next_free else next_free
        finish = start + nbytes * 8.0 / (self.bandwidth_gbps * 1e3)
        self._next_free = finish
        self.frames_sent += 1
        self.bytes_sent += nbytes
        arrival = finish + self.propagation_us
        sim.schedule_at(arrival, deliver, *args)
        return arrival

    @property
    def backlog_us(self) -> float:
        """How far ahead of the clock the link is booked (send queue depth)."""
        return max(self._next_free - self.sim.now, 0.0)
