"""Socket layer and application readers.

The last hop of the receive pipeline: a stage's ``SocketDeliver``
transition enqueues the packet on the destination socket's receive queue;
an application thread (USER context on its own core) then performs the
socket read — the ``copy_to_user`` work that Figure 11 shows bottlenecking
core 2 for both the host network and Falcon.

Message completion: a *message* is delivered to the application when all
its bytes have been read (GRO/defrag may hand the socket one merged skb
or several partial ones). The completion callback receives the message's
end-to-end latency, which is what the latency figures report.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, Optional, Tuple

from repro.hw.cpu import USER
from repro.kernel.costs import CostModel
from repro.kernel.skb import FlowKey, Skb
from repro.sim.engine import Simulator

#: Called when a full message has been read by the application:
#: ``on_message(socket, skb, latency_us)``.
MessageCallback = Callable[["Socket", Skb, float], Any]


class Socket:
    """A receive socket with a bounded queue and one application reader."""

    def __init__(
        self,
        sim: Simulator,
        app_cpu: int,
        costs: CostModel,
        on_message: Optional[MessageCallback] = None,
        rmem_packets: int = 4096,
        name: str = "sock",
    ) -> None:
        self.sim = sim
        self.app_cpu_index = app_cpu
        self.costs = costs
        self.on_message = on_message
        self.rmem_packets = rmem_packets
        self.name = name
        self.rx_queue: Deque[Skb] = deque()
        self.drops = 0
        self.delivered_messages = 0
        self.delivered_bytes = 0
        self.reordered_messages = 0
        #: Set by the stack when the socket is registered.
        self.machine = None
        # Partial-message byte accounting: (flow_id, msg_id) -> bytes seen.
        self._partial: Dict[Tuple[int, int], int] = {}
        # Highest completed msg_id per flow, for reorder detection.
        self._last_msg: Dict[int, int] = {}
        self._reader_busy = False
        self._reader_idle_since = 0.0

    # ------------------------------------------------------------------
    # Kernel side: enqueue from softirq context
    # ------------------------------------------------------------------
    def enqueue(self, skb: Skb) -> bool:
        """Add a packet to the receive queue (softirq side)."""
        if len(self.rx_queue) >= self.rmem_packets:
            self.drops += 1
            return False
        self.rx_queue.append(skb)
        self._maybe_wake_reader()
        return True

    # ------------------------------------------------------------------
    # User side: the application reader loop
    # ------------------------------------------------------------------
    def _maybe_wake_reader(self) -> None:
        if self._reader_busy or not self.rx_queue:
            return
        self._reader_busy = True
        # Waking an idle (blocked-in-recv) thread costs a context switch.
        wakeup = self.costs.app_wakeup_us
        self.sim.schedule(wakeup, self._read_one)

    def _read_one(self) -> None:
        if not self.rx_queue:
            self._reader_busy = False
            return
        skb = self.rx_queue.popleft()
        cost = self.costs.copy_to_user.cost(skb.size)
        # Copying from a buffer last written by another core costs extra
        # (the locality RFS buys back by steering to the app's core).
        cost *= self.machine.locality.multiplier(skb.last_cpu, self.app_cpu_index)
        cpu = self.machine.cpus[self.app_cpu_index]
        cpu.submit(USER, "copy_to_user", cost, self._read_done, skb)

    def _read_done(self, skb: Skb) -> None:
        self._account(skb)
        # Keep draining; the reader only blocks when the queue is empty.
        if self.rx_queue:
            self._read_one()
        else:
            self._reader_busy = False

    def _account(self, skb: Skb) -> None:
        key = (skb.flow.flow_id, skb.msg_id)
        seen = self._partial.get(key, 0) + skb.size
        if seen < skb.msg_size:
            self._partial[key] = seen
            return
        self._partial.pop(key, None)
        self.delivered_messages += 1
        self.delivered_bytes += skb.msg_size
        last = self._last_msg.get(skb.flow.flow_id, -1)
        if skb.msg_id < last:
            self.reordered_messages += 1
        else:
            self._last_msg[skb.flow.flow_id] = skb.msg_id
        if self.on_message is not None:
            latency = self.sim.now - skb.t_send
            self.on_message(self, skb, latency)

    @property
    def queue_depth(self) -> int:
        return len(self.rx_queue)


class SocketTable:
    """Flow → socket routing for one host's stack."""

    def __init__(self) -> None:
        self._by_flow: Dict[int, Socket] = {}
        self.unroutable = 0

    def bind(self, flow: FlowKey, socket: Socket) -> None:
        self._by_flow[flow.flow_id] = socket

    def lookup(self, flow: FlowKey) -> Optional[Socket]:
        return self._by_flow.get(flow.flow_id)

    def sockets(self) -> set:
        return set(self._by_flow.values())
