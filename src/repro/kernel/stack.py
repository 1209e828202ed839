"""The assembled receive path of one host.

:class:`NetworkStack` wires the pieces together into the stage graph of
Figure 8:

Host (native) mode::

    NIC ring ──napi──> [pnic: skb_alloc, gro, rps_steer]
        ──RPS──> [hoststack: backlog, ip, defrag, l4, sock] ──> socket

Overlay mode::

    NIC ring ──napi──> [pnic]
        ──RPS──>    [hoststack_outer: backlog, ip, udp, vxlan_rcv, netif_rx]
        ──FALCON──> [vxlan: gro_cell_poll, br_handle_frame, veth_xmit, netif_rx]
        ──FALCON──> [container: backlog, ip, defrag, l4, sock] ──> socket

The two ``FALCON`` transition points are where Algorithm 1's
``get_falcon_cpu`` runs; in a vanilla stack the same points exist but
always target the current core (the stock ``netif_rx`` behaviour), which
serializes all three softirq stages on the RPS target core.

GRO splitting inserts one more transition inside the pnic stage (before
``napi_gro_receive``), turning it into two stages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.config import FalconConfig, FlowCacheConfig
from repro.core.falcon import FalconSteering, VanillaSteering
from repro.core.splitting import GRO_SPLIT, validate_split
from repro.hw.nic import Nic
from repro.hw.topology import Machine
from repro.kernel.costs import CostModel
from repro.kernel.defrag import DefragEngine
from repro.kernel.devices import base as devices
from repro.kernel.devices import bridge as bridge_dev
from repro.kernel.devices import physical as pnic_dev
from repro.kernel.devices import veth as veth_dev
from repro.kernel.devices import vxlan as vxlan_dev
from repro.kernel.flowcache import FlowCache, fastpath_step
from repro.kernel.gro import GroCluster
from repro.kernel.protocol import stack_tail_steps
from repro.kernel.skb import FlowKey, Skb
from repro.kernel.sockets import MessageCallback, Socket, SocketTable
from repro.kernel.softirq import SoftirqNet
from repro.kernel.stages import (
    EnqueueTransition,
    FastPathTransition,
    SocketDeliver,
    Stage,
    Step,
    Transition,
)
from repro.kernel.steering import Rfs, Rps
from repro.kernel.timers import LoadTracker
from repro.sim.context import SimContext
from repro.sim.engine import Simulator
from repro.sim.errors import ConfigurationError

MODE_HOST = "host"
MODE_OVERLAY = "overlay"


@dataclass
class StackConfig:
    """Configuration of one host's receive stack."""

    #: ``host`` (native network) or ``overlay`` (Docker/VXLAN).
    mode: str = MODE_OVERLAY
    #: Kernel version cost profile: ``4.19`` or ``5.4``.
    kernel: str = "4.19"
    #: Explicit cost model (overrides ``kernel`` when given).
    costs: Optional[CostModel] = None
    #: Hardware queue count and IRQ affinity of the NIC.
    nic_queues: int = 1
    ring_capacity: int = 1024
    irq_cpus: Optional[List[int]] = None
    #: RPS CPU set (the kernel's ``rps_cpus`` mask); None disables RPS.
    rps_cpus: Optional[List[int]] = field(default_factory=lambda: [1])
    #: Steering flavour over ``rps_cpus``: "rps" (hash) or "rfs"
    #: (flow table pointing at the consuming application's core).
    steering: str = "rps"
    backlog_capacity: int = 1000
    napi_weight: int = 64
    napi_budget: int = 300
    #: Max packets bundled into one simulated work item.
    batch_max: int = 16
    gro_enabled: bool = True
    rmem_packets: int = 4096
    load_tick_us: float = 500.0
    load_alpha: float = 0.5
    #: Falcon configuration; None builds a vanilla stack.
    falcon: Optional[FalconConfig] = None
    #: ONCache-style flow cache; None keeps two datapaths.
    flowcache: Optional[FlowCacheConfig] = None

    def resolve_costs(self) -> CostModel:
        return self.costs if self.costs is not None else CostModel.for_kernel(
            self.kernel
        )


class NetworkStack:
    """One host's in-kernel receive pipeline.

    The first argument accepts either the run's :class:`SimContext` (the
    preferred form — the stack joins that context) or a bare
    :class:`Simulator` (legacy form — the stack joins ``machine.ctx``,
    which wraps the same simulator).
    """

    def __init__(
        self,
        sim: "Simulator | SimContext",
        machine: Machine,
        config: StackConfig,
    ) -> None:
        if config.mode not in (MODE_HOST, MODE_OVERLAY):
            raise ConfigurationError(f"unknown stack mode {config.mode!r}")
        if isinstance(sim, SimContext):
            self.ctx = sim
        else:
            self.ctx = machine.ctx
        self.sim = self.ctx.sim
        self.machine = machine
        self.config = config
        self.costs = config.resolve_costs()
        if self.ctx.costs is None:
            self.ctx.costs = self.costs
        self.is_overlay = config.mode == MODE_OVERLAY

        # --- hardware ----------------------------------------------------
        irq_cpus = config.irq_cpus or [0] * config.nic_queues
        self.nic = Nic(
            num_queues=config.nic_queues,
            ring_capacity=config.ring_capacity,
            irq_cpus=irq_cpus,
        )

        # --- steering ----------------------------------------------------
        if config.rps_cpus:
            if config.steering == "rfs":
                self.rps: Optional[Rps] = Rfs(config.rps_cpus)
            elif config.steering == "rps":
                self.rps = Rps(config.rps_cpus)
            else:
                raise ConfigurationError(
                    f"unknown steering flavour {config.steering!r}"
                )
        else:
            self.rps = None
        if config.falcon is not None:
            self.falcon: Optional[FalconSteering] = FalconSteering(
                machine, config.falcon
            )
        else:
            self.falcon = None
        self._vanilla = VanillaSteering()

        # --- merge engines -------------------------------------------------
        self.gro = GroCluster(machine.num_cpus) if config.gro_enabled else None
        self.defrag = DefragEngine(self.sim)

        # --- flow cache (third datapath; overlay only) ---------------------
        if config.flowcache is not None and self.is_overlay:
            self.flowcache: Optional[FlowCache] = FlowCache(config.flowcache)
        else:
            self.flowcache = None
        self.defrag.flowcache = self.flowcache

        # --- softirq subsystem ---------------------------------------------
        self.softnet = SoftirqNet(
            machine,
            self.costs,
            stack=self,
            budget=config.napi_budget,
            napi_weight=config.napi_weight,
            batch_max=config.batch_max,
            backlog_capacity=config.backlog_capacity,
        )
        self.softnet.flowcache = self.flowcache
        #: StackPort entry of the stage transitions: the softnet's own
        #: method, so a routed batch pays one call.
        self.enqueue_backlog = self.softnet.enqueue_backlog

        # --- sockets ---------------------------------------------------------
        self.sockets = SocketTable()
        self.delivered_packets = 0
        #: Wire segments delivered via the cached fast path.
        self.fastpath_deliveries = 0
        self.unroutable_packets = 0
        #: Pure-ACK packets consumed by the stack (request/response loads).
        self.control_packets = 0
        #: Optional :class:`repro.validate.InvariantMonitor`; written by
        #: the context on attach/detach, None in normal runs.
        self.monitor = None
        self.ctx.register_monitored(self, self.softnet, self.defrag)

        # --- stage graph -------------------------------------------------
        self.stages: dict = {}
        self._build_stages()
        self.softnet.attach_nic(
            self.nic, self.stages["pnic"], napi_weight=config.napi_weight
        )

        # --- timers ------------------------------------------------------
        self.load_tracker = LoadTracker(
            machine,
            self.costs,
            tick_us=config.load_tick_us,
            alpha=config.load_alpha,
        )
        self.load_tracker.start()

    # ------------------------------------------------------------------
    # Context-managed hooks
    # ------------------------------------------------------------------
    @property
    def tracer(self):
        """The run's packet tracer (owned by the :class:`SimContext`)."""
        return self.ctx.tracer

    @tracer.setter
    def tracer(self, value) -> None:
        self.ctx.attach_tracer(value)

    # ------------------------------------------------------------------
    # Stage-graph construction
    # ------------------------------------------------------------------
    def _steering(self):
        return self.falcon if self.falcon is not None else self._vanilla

    def _rps_selector(self):
        if self.rps is not None:
            return self.rps.get_rps_cpu
        return lambda skb, current_cpu, n: current_cpu

    def _build_stages(self) -> None:
        costs = self.costs
        steering = self._steering()

        # Terminal stage: the stack tail that delivers into a socket.
        tail_name = "container" if self.is_overlay else "hoststack"
        tail_ifindex = devices.IFINDEX_VETH if self.is_overlay else devices.IFINDEX_PNIC
        tail_steps = [
            Step.simple("process_backlog", costs.backlog_dequeue)
        ] + stack_tail_steps(costs, self.defrag)
        tail = Stage(tail_name, tail_ifindex, tail_steps, SocketDeliver())
        self.stages[tail_name] = tail

        if self.is_overlay:
            # veth/bridge stage (softirq #2): gro_cell_poll → bridge → veth.
            vxlan_stage = Stage(
                "vxlan",
                devices.IFINDEX_VXLAN,
                [
                    vxlan_dev.gro_cell_poll_step(costs),
                    bridge_dev.bridge_step(costs),
                ]
                + veth_dev.veth_steps(costs),
                EnqueueTransition(
                    tail,
                    steering.selector(devices.IFINDEX_VETH),
                    name="netif_rx[veth]",
                ),
            )
            self.stages["vxlan"] = vxlan_stage

            # Outer host stack ending in vxlan_rcv (raises softirq #2).
            hoststack = Stage(
                "hoststack_outer",
                devices.IFINDEX_PNIC,
                vxlan_dev.outer_stack_steps(costs),
                EnqueueTransition(
                    vxlan_stage,
                    steering.selector(devices.IFINDEX_VXLAN),
                    name="netif_rx[vxlan]",
                ),
            )
            self.stages["hoststack_outer"] = hoststack
            after_driver: Stage = hoststack

            if self.flowcache is not None:
                # Fast-path stage: one cached-cost step, then straight to
                # the container tail through a FALCON transition point —
                # the cache removes work, Falcon parallelizes the rest.
                fastpath = Stage(
                    "fastpath",
                    devices.IFINDEX_FASTPATH,
                    [fastpath_step(costs)],
                    EnqueueTransition(
                        tail,
                        steering.selector(devices.IFINDEX_VETH),
                        name="netif_rx[fastpath]",
                    ),
                )
                self.stages["fastpath"] = fastpath
        else:
            after_driver = tail

        rps_transition: Transition = EnqueueTransition(
            after_driver, self._rps_selector(), name="rps"
        )
        if self.flowcache is not None:
            # The driver exit consults the flow cache: hits jump to the
            # fast-path stage (still RPS-steered off the driver core),
            # misses ride the unchanged slow device chain.
            rps_transition = FastPathTransition(
                self.flowcache,
                hit=EnqueueTransition(
                    self.stages["fastpath"],
                    self._rps_selector(),
                    name="rps[fastpath]",
                ),
                miss=rps_transition,
            )

        if self.falcon is not None and self.falcon.config.split_gro:
            validate_split(GRO_SPLIT)
            gro_flush = self.gro.flush if self.gro is not None else None
            second_half = Stage(
                "pnic_gro",
                devices.IFINDEX_PNIC_SPLIT,
                pnic_dev.driver_second_half_steps(costs, self.gro),
                rps_transition,
                flush=gro_flush,
            )
            self.stages["pnic_gro"] = second_half
            driver = Stage(
                "pnic",
                devices.IFINDEX_PNIC,
                pnic_dev.driver_first_half_steps(costs),
                EnqueueTransition(
                    second_half,
                    self.falcon.split_selector(
                        devices.IFINDEX_PNIC_SPLIT,
                        self.falcon.config.split_same_core,
                    ),
                    name="netif_rx[gro-split]",
                ),
            )
        else:
            gro_flush = self.gro.flush if self.gro is not None else None
            driver = Stage(
                "pnic",
                devices.IFINDEX_PNIC,
                pnic_dev.driver_steps(costs, self.gro),
                rps_transition,
                flush=gro_flush,
            )
        self.stages["pnic"] = driver

    # ------------------------------------------------------------------
    # StackPort interface (used by stage transitions; ``enqueue_backlog``
    # is bound to the softnet in ``__init__``)
    # ------------------------------------------------------------------
    def deliver_to_socket(self, skb: Skb, cpu_index: int) -> None:
        tracer = self.ctx.tracer
        monitor = self.monitor
        flowcache = self.flowcache
        if flowcache is not None:
            # Whatever the outcome below, the packet leaves the pipeline
            # here: settle its slow-path reservation first.
            flowcache.packet_terminated(skb)
        if tracer is not None and tracer.wants(skb):
            tracer.record(skb, self.sim.now, "deliver", "socket", cpu_index)
        if skb.meta == "ctl":
            # Control traffic (pure ACKs): consumed by tcp_v4_rcv after
            # riding the whole receive pipeline; nothing reaches the app.
            self.control_packets += 1
            if monitor is not None:
                monitor.on_terminal(skb, "control")
            return
        socket = self.sockets.lookup(skb.flow)
        if socket is None:
            self.unroutable_packets += 1
            self.sockets.unroutable += 1
            if monitor is not None:
                monitor.on_terminal(skb, "unroutable")
            return
        skb.last_cpu = cpu_index
        if socket.enqueue(skb):
            self.delivered_packets += 1
            if flowcache is not None and skb.fastpath is not None:
                if skb.fastpath:
                    self.fastpath_deliveries += skb.fastpath
                    if monitor is not None:
                        monitor.on_fastpath_delivery(cpu_index, skb.fastpath)
                # A completed slow traversal (re)populates the entry.
                flowcache.delivered(skb)
            if monitor is not None:
                monitor.on_terminal(skb, "delivered")
        elif monitor is not None:
            monitor.on_terminal(skb, "socket_drop")

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def open_socket(
        self,
        flow: FlowKey,
        app_cpu: int,
        on_message: Optional[MessageCallback] = None,
        rmem_packets: Optional[int] = None,
        name: str = "sock",
    ) -> Socket:
        """Create a socket bound to ``flow`` with its reader on ``app_cpu``."""
        socket = Socket(
            self.sim,
            app_cpu,
            self.costs,
            on_message=on_message,
            rmem_packets=rmem_packets or self.config.rmem_packets,
            name=name,
        )
        socket.machine = self.machine
        self.sockets.bind(flow, socket)
        self._record_rfs_consumer(flow, socket)
        return socket

    def bind_flow(self, flow: FlowKey, socket: Socket) -> None:
        """Attach an additional flow to an existing socket (TCP server)."""
        self.sockets.bind(flow, socket)
        self._record_rfs_consumer(flow, socket)

    def _record_rfs_consumer(self, flow: FlowKey, socket: Socket) -> None:
        # RFS learns where the application reads each flow; our reader
        # threads are pinned, so the table entry is known at bind time.
        if isinstance(self.rps, Rfs):
            self.rps.record_consumer(flow.flow_id, socket.app_cpu_index)

    def inject(self, skb: Skb) -> bool:
        """A frame arrived from the wire (called at link delivery time)."""
        skb.t_nic = self.sim.now
        accepted = self.nic.receive(skb)
        if self.monitor is not None:
            self.monitor.on_inject(skb, accepted)
        return accepted

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def drop_counts(self) -> dict:
        socket_drops = sum(sock.drops for sock in self.sockets.sockets())
        return {
            "ring": self.nic.total_drops,
            "backlog": self.softnet.backlog_drops(),
            "socket": socket_drops,
            "unroutable": self.unroutable_packets,
            "defrag_timeout": self.defrag.defrag_timeouts,
        }

    @property
    def overlay_ifindexes(self) -> List[int]:
        """Device indexes at Falcon transition points, in path order."""
        return [devices.IFINDEX_VXLAN, devices.IFINDEX_VETH]
