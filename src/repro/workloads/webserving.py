"""CloudSuite Web Serving (Elgg) workload model — Figure 17.

The benchmark's four tiers are mapped onto the simulation as follows
(matching the paper's deployment: all tiers in containers connected by
the Docker overlay on the 100G NIC):

* **clients** — 200 closed-loop users. An Elgg operation is a full page
  load: one dynamic request followed by a burst of static-asset requests
  (CSS/JS/avatars), all carried over the user's connections and all
  riding the simulated overlay receive pipeline — page loads are what
  make web serving packet-hungry;
* **web server (nginx+PHP)** — a :class:`WorkerPool` with
  ``pm.max_children = 100`` workers; dynamic requests pay PHP service
  time plus memcached/mysql tier calls, static assets are served by
  nginx cheaply;
* **memcached / mysql tiers** — fixed service cost on a dedicated core
  each, reached with an RPC overhead (the paper pins the cache and
  database to two separate cores);
* the client's TCP ACKs for every response segment return through the
  server's receive pipeline (see
  :class:`~repro.workloads.apps.ResponseChannel`), so the overlay's
  serialized softirqs — not the application — are what saturates first,
  reproducing the conditions under which the paper reports up to 300%
  higher operation rates with Falcon.

Per operation the benchmark reports (Figure 17): successful operations
per minute, average response time, and average *delay time* — the excess
of the actual response time over the operation's target time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.config import FalconConfig
from repro.kernel.skb import PROTO_TCP, Skb
from repro.sim.stats import LatencyRecorder
from repro.workloads.apps import ResponseChannel, WorkerPool
from repro.workloads.sockperf import Testbed


@dataclass(frozen=True)
class Operation:
    """One Elgg operation profile."""

    name: str
    #: Selection weight in the client mix.
    weight: float
    #: Dynamic-request payload bytes (POST bodies are larger).
    request_bytes: int
    #: Dynamic-response payload bytes (the rendered page).
    response_bytes: int
    #: PHP service time on a web worker, µs.
    service_us: float
    #: Number of memcached lookups the page performs.
    cache_calls: int
    #: Number of mysql queries the page performs.
    db_calls: int
    #: Static assets fetched to finish rendering the page.
    asset_count: int
    #: Mean asset size, bytes.
    asset_bytes: int
    #: CloudSuite-style response-time target, µs.
    target_us: float


#: The Elgg operation mix (weights approximate the CloudSuite driver).
OPERATIONS: List[Operation] = [
    Operation("BrowsetoElgg", 0.24, 400, 24_000, 90.0, 3, 1, 20, 6_000, 2_500.0),
    Operation("Login", 0.08, 600, 16_000, 140.0, 2, 3, 8, 5_000, 2_000.0),
    Operation("CheckActivity", 0.22, 400, 20_000, 110.0, 4, 2, 14, 5_000, 2_200.0),
    Operation("ReceiveChatMessage", 0.16, 400, 4_000, 60.0, 2, 1, 2, 2_000, 1_000.0),
    Operation("SendChatMessage", 0.12, 900, 4_000, 80.0, 2, 2, 2, 2_000, 1_200.0),
    Operation("UpdateActivity", 0.08, 700, 12_000, 120.0, 3, 2, 10, 4_000, 1_800.0),
    Operation("PostSelfWall", 0.06, 1_200, 10_000, 150.0, 2, 3, 8, 4_000, 1_800.0),
    Operation("AddFriend", 0.04, 500, 8_000, 100.0, 2, 2, 5, 3_000, 1_500.0),
]

class _Backend:
    """A single-core backend tier (memcached or mysql) as a FIFO server."""

    def __init__(self, machine, cpu: int, service_us: float, label: str) -> None:
        self.pool = WorkerPool(machine, [cpu], max_workers=1, label=label)
        self.service_us = service_us
        #: Round-trip overhead of reaching the tier over the local overlay.
        self.rpc_overhead_us = 25.0
        self.machine = machine

    def call(self, count: int, done) -> None:
        """Perform ``count`` sequential calls, then invoke ``done``."""
        if count <= 0:
            self.machine.sim.schedule(0.0, done)
            return

        def one(remaining: int) -> None:
            if remaining == 0:
                done()
                return
            self.pool.submit(
                self.service_us,
                lambda: self.machine.sim.schedule(
                    self.rpc_overhead_us, one, remaining - 1
                ),
            )

        one(count)


class _PageLoad:
    """Tracks one in-flight operation (dynamic response + its assets)."""

    __slots__ = ("op", "t_start", "pending", "session", "failed")

    def __init__(self, op: Operation, t_start: float, session) -> None:
        self.op = op
        self.t_start = t_start
        self.pending = 1 + op.asset_count
        self.session = session
        self.failed = False


class _AssetFetch:
    """One asset request with RTO-based retransmission state."""

    __slots__ = ("page", "done", "attempts")

    def __init__(self, page: _PageLoad) -> None:
        self.page = page
        self.done = False
        self.attempts = 0


@dataclass
class OpStats:
    completed: int = 0
    #: Operations abandoned after exhausting asset retransmissions.
    failed: int = 0
    response: LatencyRecorder = field(default_factory=LatencyRecorder)
    delay: LatencyRecorder = field(default_factory=LatencyRecorder)


@dataclass
class WebServingResult:
    users: int
    mode: str
    measure_ms: float
    per_op: Dict[str, OpStats]
    total_ops: int
    cpu_util: List[float]

    def ops_per_minute(self, op_name: str) -> float:
        stats = self.per_op[op_name]
        return stats.completed / (self.measure_ms / 60_000.0)

    def avg_response_ms(self, op_name: str) -> float:
        return self.per_op[op_name].response.mean / 1000.0

    def avg_delay_ms(self, op_name: str) -> float:
        return self.per_op[op_name].delay.mean / 1000.0

    def op_names(self) -> List[str]:
        return [op.name for op in OPERATIONS]


class WebServingScenario:
    """One Figure-17 run."""

    def __init__(
        self,
        users: int = 200,
        mode: str = "overlay",
        falcon: Optional[FalconConfig] = None,
        web_cpus: Optional[List[int]] = None,
        cache_cpu: int = 18,
        db_cpu: int = 19,
        max_children: int = 100,
        think_time_us: float = 1_500.0,
        rto_us: float = 30_000.0,
        max_attempts: int = 4,
        seed: int = 0,
    ) -> None:
        self.users = users
        self.think_time_us = think_time_us
        self.rto_us = rto_us
        self.max_attempts = max_attempts
        web_cpus = web_cpus or [8, 9, 10, 11, 12, 13, 14, 15, 16, 17]
        self.bed = Testbed(
            mode=mode,
            falcon=falcon,
            rps_cpus=[1, 2],
            app_cpus=web_cpus,
            seed=seed,
        )
        machine = self.bed.host.machine
        self.web_pool = WorkerPool(
            machine, web_cpus, max_workers=max_children, label="php_worker"
        )
        self.cache = _Backend(machine, cache_cpu, 2.0, "memcached_tier")
        self.db = _Backend(machine, db_cpu, 8.0, "mysql_tier")
        self.channel = ResponseChannel(
            machine,
            self.bed.egress_link,
            self.bed.stack.costs,
            overlay=self.bed.stack.is_overlay,
            ack_stack=self.bed.stack,
            ack_link=self.bed.link,
        )
        self._rng = machine.rng.stream("webserving")
        self.stats: Dict[str, OpStats] = {op.name: OpStats() for op in OPERATIONS}
        self._ops_by_cumweight = self._build_cdf()
        self._sessions: Dict[int, dict] = {}
        self._build_users()

    def _build_cdf(self):
        total = sum(op.weight for op in OPERATIONS)
        cdf = []
        running = 0.0
        for op in OPERATIONS:
            running += op.weight / total
            cdf.append((running, op))
        return cdf

    def _pick_op(self) -> Operation:
        roll = self._rng.random()
        for bound, op in self._ops_by_cumweight:
            if roll <= bound:
                return op
        return self._ops_by_cumweight[-1][1]

    def _build_users(self) -> None:
        for index in range(self.users):
            # The dynamic request rides the user's main connection (a
            # closed-loop TcpSender); browsers fetch static assets over a
            # second connection, modelled as direct small-request
            # injections on a sibling flow bound to the same socket.
            flow = self.bed.add_tcp_flow(
                600,
                window_msgs=1,
                on_message=self._on_server_packet,
                retransmit_timeout_us=2 * self.rto_us,
                auto_credit=False,
            )
            socket = self.bed.stack.sockets.lookup(flow)
            asset_flow = self.bed._make_flow(PROTO_TCP, 8000 + index)
            self.bed.stack.bind_flow(asset_flow, socket)
            self._sessions[flow.flow_id] = {
                "asset_flow": asset_flow,
                "asset_msg": 0,
                "main_flow": flow,
            }
            self._sessions[asset_flow.flow_id] = self._sessions[flow.flow_id]

    # ------------------------------------------------------------------
    # Server side
    # ------------------------------------------------------------------
    def _on_server_packet(self, socket, skb, latency_us: float) -> None:
        if isinstance(skb.meta, _AssetFetch):
            self._serve_asset(socket, skb)
        else:
            self._serve_dynamic(socket, skb)

    def _serve_dynamic(self, socket, skb) -> None:
        op = self._pick_op()
        page = _PageLoad(op, skb.t_send, self._sessions[skb.flow.flow_id])
        worker_cpu = socket.app_cpu_index

        def after_db() -> None:
            self.channel.respond(
                worker_cpu,
                op.response_bytes,
                lambda: self._main_response_at_client(page),
                flow=skb.flow,
            )

        def after_cache() -> None:
            self.db.call(op.db_calls, after_db)

        self.web_pool.submit(
            op.service_us, lambda: self.cache.call(op.cache_calls, after_cache)
        )

    def _serve_asset(self, socket, skb) -> None:
        fetch: _AssetFetch = skb.meta
        worker_cpu = socket.app_cpu_index
        self.web_pool.submit(
            self.bed.stack.costs.asset_service_us,
            lambda: self.channel.respond(
                worker_cpu,
                fetch.page.op.asset_bytes,
                lambda: self._asset_at_client(fetch),
                flow=skb.flow,
            ),
        )

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------
    def _main_response_at_client(self, page: _PageLoad) -> None:
        """The page HTML arrived — the browser fires the asset burst."""
        session = page.session
        asset_flow = session["asset_flow"]
        sim = self.bed.sim
        costs = self.bed.stack.costs
        for index in range(page.op.asset_count):
            fetch = _AssetFetch(page)
            # Browsers pipeline asset fetches; stagger them slightly.
            sim.schedule(
                costs.asset_fetch_first_us + index * costs.asset_fetch_stagger_us,
                self._attempt_asset,
                fetch,
            )
        self._part_done(page)

    def _attempt_asset(self, fetch: _AssetFetch) -> None:
        """(Re)send one asset request; arm the retransmission timer."""
        if fetch.done or fetch.page.failed:
            return
        if fetch.attempts >= self.max_attempts:
            if not fetch.page.failed:
                fetch.page.failed = True
                if self._measuring():
                    self.stats[fetch.page.op.name].failed += 1
                self._release_user(fetch.page)
            return
        fetch.attempts += 1
        session = fetch.page.session
        session["asset_msg"] += 1
        asset_flow = session["asset_flow"]
        encap = 50 if self.bed.stack.is_overlay else 0
        request = Skb(
            asset_flow,
            size=260 + encap,
            wire_size=260 + encap + 38,
            msg_id=session["asset_msg"],
            msg_size=260,
            t_send=self.bed.sim.now,
            encapsulated=self.bed.stack.is_overlay,
            meta=fetch,
        )
        self.bed.link.send(request.wire_size, self.bed.stack.inject, request)
        self.bed.sim.schedule(self.rto_us, self._attempt_asset, fetch)

    def _asset_at_client(self, fetch: _AssetFetch) -> None:
        if fetch.done:
            return  # duplicate response to a retransmitted request
        fetch.done = True
        self._part_done(fetch.page)

    def _part_done(self, page: _PageLoad) -> None:
        page.pending -= 1
        if page.pending == 0:
            self._complete(page)

    def _measuring(self) -> bool:
        window = self.bed.window
        return window.opened and not window.closed

    def _release_user(self, page: _PageLoad) -> None:
        """Page over (rendered or abandoned): think, then the next op."""
        sender = self.bed.sender_for(page.session["main_flow"])
        if sender is not None:
            sender.credit()

    def _complete(self, page: _PageLoad) -> None:
        self._release_user(page)
        if not self._measuring() or page.failed:
            return
        response_us = self.bed.sim.now - page.t_start
        stats = self.stats[page.op.name]
        stats.completed += 1
        stats.response.record(response_us)
        stats.delay.record(max(response_us - page.op.target_us, 0.0))

    # ------------------------------------------------------------------
    def run(
        self, measure_ms: float = 40.0, warmup_ms: float = 20.0
    ) -> WebServingResult:
        for sender in self.bed.senders:
            sender.ack_delay_us = self.think_time_us
        result = self.bed.run(warmup_ms=warmup_ms, measure_ms=measure_ms)
        return WebServingResult(
            users=self.users,
            mode=result.mode,
            measure_ms=measure_ms,
            per_op=self.stats,
            total_ops=sum(s.completed for s in self.stats.values()),
            cpu_util=result.cpu_util,
        )
