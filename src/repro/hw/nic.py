"""Multi-queue NIC model with RSS and NAPI-style interrupt suppression.

Receive path behaviour mirrors a modern NIC driver (e.g. mlx5):

* arriving frames are DMA'd into the rx ring of the queue selected by RSS
  (a hash of the flow 5-tuple computed in hardware);
* if the ring is full the frame is dropped and counted;
* a hardware interrupt fires only when NAPI is not already scheduled for
  that queue — while the driver is polling, interrupts stay masked, so a
  busy receiver takes very few hardirqs per packet.

The kernel side (IRQ handler + NAPI poll loop) lives in
:mod:`repro.kernel`; the NIC calls back into it through ``irq_handler``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional


class RxQueue:
    """One hardware receive queue: ring buffer + interrupt state."""

    __slots__ = ("index", "ring", "capacity", "irq_cpu", "napi_scheduled", "drops")

    def __init__(self, index: int, capacity: int, irq_cpu: int) -> None:
        self.index = index
        self.ring: Deque = deque()
        self.capacity = capacity
        #: Core this queue's MSI-X vector is affinitized to.
        self.irq_cpu = irq_cpu
        #: True while NAPI owns the queue (interrupts masked).
        self.napi_scheduled = False
        self.drops = 0

    def __len__(self) -> int:
        return len(self.ring)


class Nic:
    """A physical NIC with ``num_queues`` receive queues.

    Args:
        num_queues: hardware queue count (RSS spreads flows across these).
        ring_capacity: per-queue rx descriptor count.
        irq_cpus: core each queue's interrupt is steered to; defaults to
            queue ``i`` → core ``i``.
        rss_hash: maps an ``skb`` to a 32-bit hash; installed by the
            kernel stack (it owns the flow-hash function).
    """

    def __init__(
        self,
        num_queues: int = 1,
        ring_capacity: int = 1024,
        irq_cpus: Optional[List[int]] = None,
    ) -> None:
        if num_queues < 1:
            raise ValueError("NIC needs at least one queue")
        if irq_cpus is None:
            irq_cpus = list(range(num_queues))
        if len(irq_cpus) != num_queues:
            raise ValueError("irq_cpus must have one entry per queue")
        self.queues = [
            RxQueue(index, ring_capacity, irq_cpus[index])
            for index in range(num_queues)
        ]
        #: Kernel callback invoked when a queue raises a hardware interrupt.
        self.irq_handler: Optional[Callable[[RxQueue], Any]] = None
        self.rx_packets = 0
        self.rx_bytes = 0

    def select_queue(self, flow_hash: int) -> RxQueue:
        """RSS: pick the queue from the flow hash (indirection by modulo)."""
        return self.queues[flow_hash % len(self.queues)]

    def receive(self, skb: Any) -> bool:
        """A frame arrived from the wire. Returns False if it was dropped.

        The queue is picked as :meth:`select_queue` picks it, inline.
        """
        queues = self.queues
        queue = queues[skb.hash % len(queues)]
        ring = queue.ring
        if len(ring) >= queue.capacity:
            queue.drops += 1
            return False
        ring.append(skb)
        self.rx_packets += 1
        self.rx_bytes += skb.wire_size
        if not queue.napi_scheduled:
            queue.napi_scheduled = True
            if self.irq_handler is None:
                raise RuntimeError("NIC has no IRQ handler installed")
            self.irq_handler(queue)
        return True

    @property
    def total_drops(self) -> int:
        return sum(queue.drops for queue in self.queues)
