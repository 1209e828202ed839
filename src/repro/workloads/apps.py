"""Server-application building blocks for the CloudSuite-style workloads.

* :class:`WorkerPool` — a bounded pool of application worker threads
  (nginx/PHP children, memcached worker threads) pinned to CPUs. Requests
  queue when all workers are busy, which is where web-serving "delay
  time" comes from.
* :class:`ResponseChannel` — models the server → client return path:
  transmit CPU cost on the worker's core, link serialization, and a fixed
  client-side receive constant. The reproduction simulates the server's
  receive pipeline in full detail; the client side only needs to close
  the latency loop.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple

from repro.hw.cpu import USER
from repro.hw.link import Link
from repro.kernel.costs import CostModel


class WorkerPool:
    """Bounded pool of application workers over a CPU set."""

    def __init__(
        self,
        machine,
        cpus: List[int],
        max_workers: int,
        label: str = "app_service",
    ) -> None:
        if max_workers < 1:
            raise ValueError("pool needs at least one worker")
        if not cpus:
            raise ValueError("pool needs at least one CPU")
        self.machine = machine
        self.cpus = list(cpus)
        self.max_workers = max_workers
        self.label = label
        self.active = 0
        self._queue: Deque[Tuple[float, Callable[[], Any]]] = deque()
        self._next_cpu = 0
        self.served = 0
        #: Peak queue depth — a saturation indicator.
        self.peak_queue = 0

    def submit(self, service_us: float, done: Callable[[], Any]) -> None:
        """Run ``service_us`` of work when a worker slot frees up."""
        if self.active < self.max_workers:
            self._start(service_us, done)
        else:
            self._queue.append((service_us, done))
            self.peak_queue = max(self.peak_queue, len(self._queue))

    def _start(self, service_us: float, done: Callable[[], Any]) -> None:
        self.active += 1
        cpu_index = self.cpus[self._next_cpu % len(self.cpus)]
        self._next_cpu += 1
        cpu = self.machine.cpus[cpu_index]
        cpu.submit(USER, self.label, service_us, self._finish, done)

    def _finish(self, done: Callable[[], Any]) -> None:
        self.active -= 1
        self.served += 1
        done()
        if self._queue and self.active < self.max_workers:
            service_us, next_done = self._queue.popleft()
            self._start(service_us, next_done)

    @property
    def queued(self) -> int:
        return len(self._queue)


class ResponseChannel:
    """Server → client response path with CPU cost and link delay.

    When ``ack_stack`` is provided, the client's TCP acknowledgements of
    the response segments are injected back through the server's receive
    pipeline (one pure ACK per two MSS segments, the kernel's delayed-ACK
    behaviour). For page-sized responses this ACK stream is most of the
    server's *receive* packet load — the traffic the overlay's serialized
    softirqs choke on in the paper's web-serving experiment.
    """

    def __init__(
        self,
        machine,
        link: Link,
        costs: CostModel,
        overlay: bool,
        client_rx_us: float = 4.0,
        ack_stack=None,
        ack_link: Optional[Link] = None,
        mss: int = 1448,
    ) -> None:
        self.machine = machine
        self.link = link
        self.costs = costs
        self.overlay = overlay
        self.client_rx_us = client_rx_us
        self.ack_stack = ack_stack
        self.ack_link = ack_link
        self.mss = mss
        self.responses_sent = 0
        self.acks_injected = 0

    def respond(
        self,
        worker_cpu: int,
        nbytes: int,
        deliver: Callable[[], Any],
        flow=None,
    ) -> None:
        """Charge transmit cost on the worker's core, then ship the bytes."""
        tx_cost = self.costs.tx_cost_us(nbytes, self.overlay)
        cpu = self.machine.cpus[worker_cpu]
        sim = self.machine.sim

        def after_tx() -> None:
            self.responses_sent += 1
            self.link.send(nbytes + 88, sim.schedule, self.client_rx_us, deliver)
            if self.ack_stack is not None and flow is not None:
                self._inject_acks(flow, nbytes)

        cpu.submit(USER, "response_tx", tx_cost, after_tx)

    def _inject_acks(self, flow, nbytes: int) -> None:
        from repro.kernel.skb import Skb  # local import to avoid cycles

        segments = max(1, (nbytes + self.mss - 1) // self.mss)
        num_acks = max(1, segments // 2)
        sim = self.machine.sim
        link = self.ack_link or self.link
        encap = 50 if self.overlay else 0
        for index in range(num_acks):
            skb = Skb(
                flow,
                size=52 + encap,
                wire_size=52 + encap + 38,
                msg_id=0,
                msg_size=52,
                t_send=sim.now,
                encapsulated=self.overlay,
                meta="ctl",
            )
            delay = self.client_rx_us + index * 3.0
            sim.schedule(delay, self._send_ack, link, skb)
            self.acks_injected += 1

    def _send_ack(self, link: Link, skb) -> None:
        stack = self.ack_stack
        link.send(skb.wire_size, stack.inject, skb)
