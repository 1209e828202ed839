"""Message senders: UDP open-loop and TCP closed-loop flows.

A sender turns application *messages* into wire packets (IP fragments or
TCP segments, see :func:`repro.kernel.costs.fragment_sizes`), charges the
sender-side stack cost (serialized per client — the sender machine has
"abundant resources" in the paper, so only its per-message pacing
matters), and pushes frames onto the ingress link of the receiving host.

Message ids are allocated when frames enter the link, so they are
monotone in wire order and the receive-side reorder detector is exact.
Latency is measured from message *initiation* (before the sender stack),
matching how sockperf timestamps its payloads.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional

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
from repro.kernel.stack import NetworkStack


class FlowState:
    """Per-flow wire counters shared by all clients of the flow."""

    __slots__ = ("msg_counter", "seq_counter")

    def __init__(self) -> None:
        self.msg_counter = 0
        self.seq_counter = 0


class BaseSender:
    """Shared mechanics: fragmentation, tx pacing, link push."""

    def __init__(
        self,
        sim,
        link: Link,
        stack: NetworkStack,
        flow: FlowKey,
        message_size: int,
        costs: CostModel,
        rng: random.Random,
        name: str = "sender",
    ) -> None:
        self.sim = sim
        self.link = link
        self.stack = stack
        self.flow = flow
        self.message_size = message_size
        self.costs = costs
        self.rng = rng
        self.name = name
        self.overlay = stack.is_overlay
        tcp = flow.proto == PROTO_TCP
        inner_overhead = IP_HEADER + (TCP_HEADER if tcp else UDP_HEADER)
        if self.overlay:
            inner_overhead += VXLAN_OVERHEAD
        #: The skb size of each wire packet of a message, split once here;
        #: a non-positive ``message_size`` raises ValueError at build.
        self._frame_sizes = tuple(
            payload + inner_overhead
            for payload in fragment_sizes(message_size, self.overlay, tcp=tcp)
        )
        #: The egress flow cache consulted per message, or None.
        self._egress_cache = stack.flowcache if self.overlay else None
        #: The sender stack's cost per message, computed once: without
        #: and with a warm egress cache entry.
        self._tx_us = self._tx_cost_us(cached=False)
        self._tx_us_cached = self._tx_cost_us(cached=True)
        self.state = FlowState()
        self._tx_free = 0.0
        self.messages_sent = 0
        self.frames_sent = 0
        self.until_us: Optional[float] = None
        self.stopped = False

    # ------------------------------------------------------------------
    def stop(self) -> None:
        self.stopped = True

    def _allowed(self) -> bool:
        if self.stopped:
            return False
        return self.until_us is None or self.sim.now < self.until_us

    def _tx_cost_us(self, cached: bool) -> float:
        cost = self.costs.tx_cost_us(self.message_size, self.overlay, cached=cached)
        num_fragments = len(self._frame_sizes)
        if num_fragments > 1:
            per_fragment = (
                self.costs.tx_per_fragment_tcp
                if self.flow.proto == PROTO_TCP
                else self.costs.tx_per_fragment_udp
            )
            cost += per_fragment.fixed * (num_fragments - 1)
        return cost

    def _initiate_message(self, on_pushed: Optional[Callable] = None) -> float:
        """Start sending one message; returns the sender-completion time."""
        t_send = self.sim.now
        cache = self._egress_cache
        # Egress flow cache: a warm entry replaces the encap header
        # construction with the cached template (checked per message;
        # the sender is serialized per flow, so no ordering gate).
        if cache is not None and cache.access_tx(self.flow):
            tx_us = self._tx_us_cached
        else:
            tx_us = self._tx_us
        tx_done = max(t_send, self._tx_free) + tx_us
        self._tx_free = tx_done
        self.sim.schedule_at(tx_done, self._push_message, t_send, on_pushed)
        return tx_done

    def _push_message(self, t_send: float, on_pushed: Optional[Callable]) -> None:
        state = self.state
        msg_id = state.msg_counter
        state.msg_counter += 1
        flow = self.flow
        message_size = self.message_size
        overlay = self.overlay
        frame_sizes = self._frame_sizes
        frag_count = len(frame_sizes)
        for index, size in enumerate(frame_sizes):
            # Positional: flow, size, wire_size, msg_id, msg_size,
            # frag_index, frag_count, seq, t_send, encapsulated.
            skb = Skb(
                flow,
                size,
                size + ETHERNET_OVERHEAD_BYTES,
                msg_id,
                message_size,
                index,
                frag_count,
                state.seq_counter,
                t_send,
                overlay,
            )
            state.seq_counter += 1
            self.link.send(skb.wire_size, self.stack.inject, skb)
        self.frames_sent += frag_count
        self.messages_sent += 1
        if on_pushed is not None:
            on_pushed(msg_id)


class UdpSender(BaseSender):
    """Open-loop UDP client.

    ``process`` decides pacing (see :mod:`repro.workloads.traffic`); a
    ``Saturating`` process reproduces sockperf's stress mode, where the
    client's own stack cost is the only pacing. Several ``UdpSender``
    instances may share one flow (the paper uses 3 clients to overload a
    single UDP flow) — pass the same ``shared_state``.
    """

    def __init__(
        self,
        sim,
        link: Link,
        stack: NetworkStack,
        flow: FlowKey,
        message_size: int,
        costs: CostModel,
        rng: random.Random,
        process,
        shared_state: Optional[FlowState] = None,
        name: str = "udp-client",
    ) -> None:
        super().__init__(sim, link, stack, flow, message_size, costs, rng, name)
        if shared_state is not None:
            self.state = shared_state
        self.process = process

    def start(self, until_us: Optional[float] = None) -> None:
        self.until_us = until_us
        self._tick()

    def _tick(self) -> None:
        now = self.sim.now
        until = self.until_us
        if self.stopped or not (until is None or now < until):
            return
        tx_done = self._initiate_message()
        gap = self.process.next_gap_us(self.rng, now)
        if gap <= 0.0:
            # Saturating mode: the client's own stack is the pacer.
            next_at = tx_done
        else:
            # Paced mode: arrivals follow the process; bursts queue at
            # the (work-conserving) sender and drain at its line rate.
            next_at = now + gap
        self.sim.schedule_at(next_at, self._tick)


class TcpSender(BaseSender):
    """Closed-loop TCP client with a message window.

    Keeps up to ``window_msgs`` messages in flight; delivery of a message
    at the server (signalled via :meth:`credit`) releases the window —
    TCP's self-clocking. An optional ``process`` paces injections below
    the window limit for underloaded latency tests.
    """

    def __init__(
        self,
        sim,
        link: Link,
        stack: NetworkStack,
        flow: FlowKey,
        message_size: int,
        costs: CostModel,
        rng: random.Random,
        window_msgs: int = 16,
        process=None,
        ack_delay_us: float = 3.0,
        retransmit_timeout_us: Optional[float] = None,
        name: str = "tcp-client",
    ) -> None:
        super().__init__(sim, link, stack, flow, message_size, costs, rng, name)
        if window_msgs < 1:
            raise ValueError("window must be >= 1")
        self.window_msgs = window_msgs
        self.process = process
        self.ack_delay_us = ack_delay_us
        #: When set, a stalled window (no delivery for this long) is
        #: treated as packet loss: the message is retransmitted, modelling
        #: TCP's RTO recovery. Without it, a dropped request would wedge a
        #: closed-loop client forever.
        self.retransmit_timeout_us = retransmit_timeout_us
        self.outstanding = 0
        self.completed_messages = 0
        self.retransmits = 0
        self._last_activity = 0.0

    def start(self, until_us: Optional[float] = None) -> None:
        self.until_us = until_us
        self._last_activity = self.sim.now
        if self.process is None:
            self._fill_window()
        else:
            self._paced_tick()
        if self.retransmit_timeout_us is not None:
            self.sim.schedule(self.retransmit_timeout_us, self._watchdog)

    def _watchdog(self) -> None:
        if self.stopped:
            return
        rto = self.retransmit_timeout_us
        stalled = (
            self.outstanding >= self.window_msgs
            and self.sim.now - self._last_activity >= rto
        )
        if stalled and self._allowed():
            # Declare the oldest in-flight message lost and resend.
            self.retransmits += 1
            self.outstanding -= 1
            self._last_activity = self.sim.now
            self._fill_window()
        self.sim.schedule(rto, self._watchdog)

    # --- closed loop ---------------------------------------------------
    def _fill_window(self) -> None:
        while self.outstanding < self.window_msgs and self._allowed():
            self.outstanding += 1
            self._initiate_message()

    def credit(self) -> None:
        """A message was fully delivered to the server application."""
        self.completed_messages += 1
        self._last_activity = self.sim.now
        self.outstanding = max(self.outstanding - 1, 0)
        if self.process is None and self._allowed():
            # The ACK's flight back and processing delay self-clock us.
            self.sim.schedule(self.ack_delay_us, self._fill_window)

    # --- paced (underloaded latency tests) ------------------------------
    def _paced_tick(self) -> None:
        if not self._allowed():
            return
        if self.outstanding < self.window_msgs:
            self.outstanding += 1
            self._initiate_message()
        gap = self.process.next_gap_us(self.rng, self.sim.now)
        self.sim.schedule(gap, self._paced_tick)
