"""Transmit path: the sender half of Figure 1.

The paper evaluates reception ("reception is in general harder ... and
incurs greater overhead", §2), and the figure-reproduction harness keeps
senders as calibrated pacing models for exactly that reason. This module
provides the full transmit substrate for scenarios that want both ends
simulated: container send → (segmentation) → veth/bridge → VXLAN
encapsulation → host IP → qdisc → NIC ring → wire.

Unlike reception, transmission runs almost entirely in the *sender's
process context* on the application's core (``sendmsg`` walks the whole
stack synchronously until the packet rests in the qdisc), which is why
the overlay's TX penalty is extra per-packet CPU on the app core rather
than the serialized-softirq pathology of the receive side — the
asymmetry that makes the paper's RX focus the right one. The qdisc
drains at link speed; when the application out-paces the wire, packets
queue there and overflow is dropped (pfifo semantics).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional, Tuple

from repro.hw.cpu import USER
from repro.hw.link import ETHERNET_OVERHEAD_BYTES, Link
from repro.kernel.costs import (
    IP_HEADER,
    TCP_HEADER,
    UDP_HEADER,
    VXLAN_OVERHEAD,
    CostModel,
    fragment_sizes,
)
from repro.kernel.skb import PROTO_TCP, FlowKey, Skb


class Qdisc:
    """A pfifo queueing discipline feeding one link."""

    def __init__(self, sim, link: Link, capacity_packets: int = 1000) -> None:
        self.sim = sim
        self.link = link
        self.capacity = capacity_packets
        self._queue: Deque[Tuple[Skb, Callable[[Skb], Any]]] = deque()
        self._draining = False
        self.enqueued = 0
        self.drops = 0

    def enqueue(self, skb: Skb, deliver: Callable[[Skb], Any]) -> bool:
        if len(self._queue) >= self.capacity:
            self.drops += 1
            return False
        self._queue.append((skb, deliver))
        self.enqueued += 1
        if not self._draining:
            self._draining = True
            self._drain()
        return True

    def _drain(self) -> None:
        if not self._queue:
            self._draining = False
            return
        skb, deliver = self._queue.popleft()
        # The link's serialization is the pacing: hand the frame over and
        # drain the next one when this frame has left the NIC.
        departure = self.link.send(skb.wire_size, deliver, skb)
        self.sim.schedule_at(
            max(departure - self.link.propagation_us, self.sim.now),
            self._drain,
        )

    @property
    def depth(self) -> int:
        return len(self._queue)


class TxStack:
    """The sender-side stack of one host.

    ``send_message`` charges the whole per-packet transmit walk as USER
    work on the sending application's core (sendmsg context), then
    enqueues the wire frames on the qdisc.
    """

    def __init__(
        self,
        machine,
        link: Link,
        costs: CostModel,
        overlay: bool,
        qdisc_capacity: int = 1000,
    ) -> None:
        self.machine = machine
        self.costs = costs
        self.overlay = overlay
        self.qdisc = Qdisc(machine.sim, link, qdisc_capacity)
        self.messages_sent = 0
        self.frames_sent = 0
        self._seq_by_flow: dict = {}

    # ------------------------------------------------------------------
    # Cost model: per wire packet, charged in sendmsg context
    # ------------------------------------------------------------------
    def _per_packet_cost(self, payload: int) -> float:
        costs = self.costs
        total = 0.0
        # copy_from_user + protocol send path.
        total += costs.copy_to_user.cost(payload) * 0.6  # tx copy is cheaper
        total += costs.ip_rcv.fixed  # ip_output ~ ip_rcv in weight
        if self.overlay:
            # veth_xmit → br_forward → vxlan encap on the way out.
            total += costs.veth_xmit.cost(payload)
            total += costs.br_handle_frame.cost(payload)
            total += costs.vxlan_rcv.cost(payload)  # encap ≈ decap work
            total += costs.udp_rcv_outer.fixed  # outer udp header build
        total += costs.netif_rx.fixed  # qdisc enqueue
        return total

    def send_message(
        self,
        flow: FlowKey,
        message_size: int,
        app_cpu: int,
        deliver: Callable[[Skb], Any],
        msg_id: int = 0,
        meta: Any = None,
    ) -> None:
        """Send one message; ``deliver(skb)`` fires per frame at the far end."""
        payloads = fragment_sizes(
            message_size, self.overlay, tcp=flow.proto == PROTO_TCP
        )
        cost = sum(self._per_packet_cost(p) for p in payloads)
        cpu = self.machine.cpus[app_cpu]
        t_send = self.machine.sim.now
        cpu.submit(
            USER,
            "sendmsg",
            cost,
            self._emit_frames,
            flow,
            payloads,
            message_size,
            msg_id,
            t_send,
            meta,
            deliver,
        )

    def _emit_frames(
        self, flow, payloads, message_size, msg_id, t_send, meta, deliver
    ) -> None:
        l4_header = TCP_HEADER if flow.proto == PROTO_TCP else UDP_HEADER
        seq = self._seq_by_flow.get(flow.flow_id, 0)
        for index, payload in enumerate(payloads):
            inner = payload + IP_HEADER + l4_header
            size = inner + (VXLAN_OVERHEAD if self.overlay else 0)
            skb = Skb(
                flow,
                size=size,
                wire_size=size + ETHERNET_OVERHEAD_BYTES,
                msg_id=msg_id,
                msg_size=message_size,
                frag_index=index,
                frag_count=len(payloads),
                seq=seq,
                t_send=t_send,
                encapsulated=self.overlay,
                meta=meta,
            )
            seq += 1
            if self.qdisc.enqueue(skb, deliver):
                self.frames_sent += 1
        self._seq_by_flow[flow.flow_id] = seq
        self.messages_sent += 1
