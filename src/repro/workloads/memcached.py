"""CloudSuite Data Caching (memcached) workload model — Figure 18.

The paper's configuration: a memcached server container (4 GB, 4 worker
threads, 550-byte objects) and a client with up to 10 threads driving 100
connections with the Twitter dataset. We model:

* each connection as a TCP flow carrying small GET requests (~76 B) and
  550-byte responses (GETs dominate the Twitter profile; a small SET
  fraction writes larger requests with tiny replies);
* 4 memcached worker threads as a :class:`WorkerPool` over 4 cores, with
  a ~2 µs in-memory hash lookup per request;
* closed-loop clients with exponential think time, so client count
  scales offered load the way adding client threads does in CloudSuite.

Latency is measured at the client: request initiation → response
received, i.e. it includes the server's full receive pipeline (where
Falcon acts), service time, and the response path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.config import FalconConfig
from repro.sim.stats import LatencyRecorder
from repro.workloads.apps import ResponseChannel, WorkerPool
from repro.workloads.sockperf import Testbed

#: Twitter-dataset object size the paper configures.
OBJECT_SIZE = 550
#: GET request wire payload (key + protocol overhead).
GET_REQUEST_SIZE = 76
#: Fraction of SETs in the Twitter profile.
SET_FRACTION = 0.1


@dataclass
class MemcachedResult:
    clients: int
    mode: str
    requests_completed: int
    throughput_rps: float
    latency: Dict[str, float]
    cpu_util: List[float] = field(default_factory=list)
    server_pool_peak_queue: int = 0


class MemcachedScenario:
    """One data-caching run."""

    def __init__(
        self,
        clients: int = 10,
        connections_per_client: int = 10,
        mode: str = "overlay",
        falcon: Optional[FalconConfig] = None,
        worker_cpus: Optional[List[int]] = None,
        think_time_us: float = 120.0,
        service_us: float = 2.0,
        seed: int = 0,
    ) -> None:
        self.clients = clients
        self.connections = clients * connections_per_client
        self.think_time_us = think_time_us
        self.service_us = service_us
        worker_cpus = worker_cpus or [10, 11, 12, 13]
        self.bed = Testbed(
            mode=mode,
            falcon=falcon,
            rps_cpus=[1, 2],
            app_cpus=worker_cpus,
            seed=seed,
        )
        machine = self.bed.host.machine
        self.pool = WorkerPool(
            machine, worker_cpus, max_workers=4, label="memcached_worker"
        )
        self.channel = ResponseChannel(
            machine,
            self.bed.egress_link,
            self.bed.stack.costs,
            overlay=self.bed.stack.is_overlay,
            ack_stack=self.bed.stack,
            ack_link=self.bed.link,
        )
        self.latency = LatencyRecorder()
        self.completed = 0
        self._rng = machine.rng.stream("memcached")
        self._flows = []
        self._worker_cpus = worker_cpus
        self._build_connections()

    def _build_connections(self) -> None:
        for index in range(self.connections):
            worker_cpu = self._worker_cpus[index % len(self._worker_cpus)]
            flow = self.bed.add_tcp_flow(
                GET_REQUEST_SIZE,
                window_msgs=1,
                app_cpu=worker_cpu,
                on_message=self._on_request,
            )
            self._flows.append(flow)

    # ------------------------------------------------------------------
    # Server side
    # ------------------------------------------------------------------
    def _on_request(self, socket, skb, latency_us: float) -> None:
        """A request finished its receive pipeline — serve it."""
        t_request = skb.t_send
        worker_cpu = socket.app_cpu_index
        is_set = self._rng.random() < SET_FRACTION
        response_bytes = 40 if is_set else OBJECT_SIZE

        def respond() -> None:
            self.channel.respond(
                worker_cpu,
                response_bytes,
                lambda: self._at_client(t_request),
                flow=skb.flow,
            )

        self.pool.submit(self.service_us, respond)

    def _at_client(self, t_request: float) -> None:
        window = self.bed.window
        if window.opened and not window.closed:
            self.latency.record(self.bed.sim.now - t_request)
            self.completed += 1
        # Closed loop: think, then the TcpSender window credit (already
        # granted at socket delivery) lets the next request flow.

    # ------------------------------------------------------------------
    def run(
        self, measure_ms: float = 30.0, warmup_ms: float = 15.0
    ) -> MemcachedResult:
        for sender in self.bed.senders:
            sender.ack_delay_us = self.think_time_us
        result = self.bed.run(warmup_ms=warmup_ms, measure_ms=measure_ms)
        return MemcachedResult(
            clients=self.clients,
            mode=result.mode,
            requests_completed=self.completed,
            throughput_rps=self.completed / (measure_ms * 1e-3),
            latency=self.latency.summary(),
            cpu_util=result.cpu_util,
            server_pool_peak_queue=self.pool.peak_queue,
        )

