"""Per-function CPU cost model.

Every kernel function on the receive path is assigned a service time of
the form ``fixed + per_byte * size`` microseconds. The values are
calibrated so the *ratios* the paper reports emerge from the simulation:

* native small-packet receive is bottlenecked by the user-space copy core
  (Figure 11), with the driver and protocol stages each well below one
  core;
* the vanilla overlay stacks roughly 3x the native softirq work on a
  single core (Figures 4–5), capping single-flow packet rate at well under
  half of native for small packets (Figure 10);
* for TCP with large messages, ``skb`` allocation and
  ``napi_gro_receive`` each contribute ~45% of the first core
  (Figure 9a), motivating GRO splitting;
* kernel 5.4 cheapens ``sk_buff`` allocation but regresses slightly in
  backlog processing ("the new kernel achieves performance improvements
  as well as causing regressions", Section 6.1).

Absolute microsecond values are *model inputs*, not claims about the
authors' testbed; EXPERIMENTS.md compares shapes, not absolutes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Tuple

#: Bytes of outer headers a VXLAN tunnel adds (outer Ethernet is counted
#: separately on the wire): outer IP (20) + outer UDP (8) + VXLAN (8) +
#: inner Ethernet (14) = 50 bytes.
VXLAN_OVERHEAD = 50

#: Standard Ethernet MTU and the resulting payload capacities.
MTU = 1500
IP_HEADER = 20
UDP_HEADER = 8
TCP_HEADER = 20


@dataclass(frozen=True)
class FuncCost:
    """Service time of one kernel function: ``fixed + per_byte * size`` µs."""

    fixed: float
    per_byte: float = 0.0

    def __post_init__(self) -> None:
        # Checked once here: the softirq batch path charges step costs
        # without a per-packet sign check.
        if self.fixed < 0 or self.per_byte < 0:
            raise ValueError(
                f"FuncCost terms must be >= 0, got fixed={self.fixed}, "
                f"per_byte={self.per_byte}"
            )

    def cost(self, nbytes: int) -> float:
        return self.fixed + self.per_byte * nbytes


@dataclass(frozen=True)
class CostModel:
    """All tunable service times, grouped by pipeline position."""

    # --- interrupt plumbing -------------------------------------------
    hardirq: FuncCost = FuncCost(0.60)
    #: Fixed overhead of entering net_rx_action for one poll round.
    softirq_dispatch: FuncCost = FuncCost(0.20)
    #: Latency from raising NET_RX on the *local* core to the handler
    #: running (leaving the current context, do_softirq entry).
    softirq_entry_us: float = 1.0
    #: Cost of switching a core between different softirq stage contexts
    #: (icache/dcache refill when net_rx_action moves to a different
    #: device's processing) — the "vanilla does not have good locality
    #: either" effect of Section 6.3. Charged once per batch when the
    #: stage differs from the previous batch on that core.
    softirq_switch: FuncCost = FuncCost(0.60)
    #: Inter-processor interrupt latency when waking a remote core's softirq.
    ipi_delay_us: float = 1.2
    ipi_jitter_us: float = 2.0

    # --- driver stage (softirq #1) ------------------------------------
    skb_alloc: FuncCost = FuncCost(0.30, 0.00004)
    #: GRO examine+merge work per wire packet (TCP flows).
    napi_gro_receive: FuncCost = FuncCost(0.25, 0.00008)
    #: GRO's quick look at a non-coalescable (UDP) packet.
    gro_check: FuncCost = FuncCost(0.08)
    #: get_rps_cpu + enqueue_to_backlog on the steering core.
    rps_steer: FuncCost = FuncCost(0.12)

    # --- per-CPU backlog ----------------------------------------------
    #: process_backlog dequeue work per packet.
    backlog_dequeue: FuncCost = FuncCost(0.12)
    #: netif_rx / enqueue_to_backlog on the sending side of a hop.
    netif_rx: FuncCost = FuncCost(0.10)

    # --- protocol stack ------------------------------------------------
    ip_rcv: FuncCost = FuncCost(0.25, 0.00001)
    #: Per-fragment ip_defrag bookkeeping (UDP messages > MTU).
    ip_defrag: FuncCost = FuncCost(0.10)
    udp_rcv: FuncCost = FuncCost(0.30, 0.00016)
    #: Lean outer-UDP receive that hands off to vxlan_rcv.
    udp_rcv_outer: FuncCost = FuncCost(0.12)
    tcp_v4_rcv: FuncCost = FuncCost(0.45, 0.00002)
    #: ACK generation folded into TCP receive (per merged skb).
    tcp_ack_tx: FuncCost = FuncCost(0.25)
    sock_enqueue: FuncCost = FuncCost(0.15)

    # --- overlay devices (softirqs #2 and #3) --------------------------
    vxlan_rcv: FuncCost = FuncCost(0.22, 0.00001)
    gro_cell_poll: FuncCost = FuncCost(0.10)
    br_handle_frame: FuncCost = FuncCost(0.15, 0.00001)
    veth_xmit: FuncCost = FuncCost(0.12, 0.00001)

    # --- ONCache fast path ----------------------------------------------
    #: Cached-hit handling at the driver exit: one flow-table lookup plus
    #: the memoized header rewrite (decap included). Replaces the whole
    #: hoststack_outer + bridge/veth device chain for a warm flow.
    flowcache_fastpath: FuncCost = FuncCost(0.18, 0.00001)
    #: Sender-side overlay transmit with a warm egress entry: the encap
    #: headers are copied from the cached template instead of recomputed.
    tx_overlay_cached: FuncCost = FuncCost(2.05, 0.00008)

    # --- user space ------------------------------------------------------
    #: Socket read syscall + copy_to_user per delivered skb.
    copy_to_user: FuncCost = FuncCost(0.85, 0.00015)
    #: Extra latency when an idle application thread must be woken.
    app_wakeup_us: float = 3.0

    # --- sender side (modelled as a serialized per-message cost; the
    # --- paper instruments reception, Section 2) ------------------------
    tx_host: FuncCost = FuncCost(2.0, 0.00008)
    tx_overlay: FuncCost = FuncCost(2.4, 0.00010)
    #: Extra transmit work per additional UDP fragment (software
    #: fragmentation at the sender).
    tx_per_fragment_udp: FuncCost = FuncCost(0.4)
    #: Extra transmit work per additional TCP segment — near zero because
    #: TSO segments large sends in NIC hardware.
    tx_per_fragment_tcp: FuncCost = FuncCost(0.1)

    # --- timer tick -----------------------------------------------------
    do_timer: FuncCost = FuncCost(0.30)

    # --- client-side workload pacing (application model, not kernel
    # --- functions; named here so every modelled delay has one home) ----
    #: Browser delay before the first pipelined asset fetch of a page.
    asset_fetch_first_us: float = 2.0
    #: Additional stagger between successive pipelined asset fetches.
    asset_fetch_stagger_us: float = 1.0
    #: Web-tier worker service time per static asset request.
    asset_service_us: float = 4.0

    name: str = "4.19"

    # ------------------------------------------------------------------
    # Kernel-version presets
    # ------------------------------------------------------------------
    @classmethod
    def kernel_4_19(cls) -> "CostModel":
        """The 4.19 baseline the numbers above are calibrated for."""
        return cls()

    @classmethod
    def kernel_5_4(cls) -> "CostModel":
        """Kernel 5.4: cheaper skb allocation, mild backlog regression."""
        base = cls()
        return replace(
            base,
            skb_alloc=FuncCost(0.24, 0.00003),
            backlog_dequeue=FuncCost(0.14),
            netif_rx=FuncCost(0.11),
            name="5.4",
        )

    @classmethod
    def for_kernel(cls, version: str) -> "CostModel":
        factory = {"4.19": cls.kernel_4_19, "5.4": cls.kernel_5_4}.get(version)
        if factory is None:
            raise ValueError(f"unknown kernel version {version!r}")
        return factory()

    # ------------------------------------------------------------------
    # Derived helpers
    # ------------------------------------------------------------------
    def tx_cost_us(self, nbytes: int, overlay: bool, cached: bool = False) -> float:
        if overlay:
            return (self.tx_overlay_cached if cached else self.tx_overlay).cost(nbytes)
        return self.tx_host.cost(nbytes)


def udp_payload_per_fragment(overlay: bool) -> int:
    """UDP payload bytes carried by one IP fragment at the path MTU."""
    inner_mtu = MTU - (VXLAN_OVERHEAD if overlay else 0)
    return inner_mtu - IP_HEADER - UDP_HEADER


def tcp_mss(overlay: bool) -> int:
    """TCP maximum segment size at the path MTU."""
    inner_mtu = MTU - (VXLAN_OVERHEAD if overlay else 0)
    return inner_mtu - IP_HEADER - TCP_HEADER


def fragment_sizes(message_size: int, overlay: bool, tcp: bool) -> Tuple[int, ...]:
    """Split a message into wire-packet payload sizes.

    Returns one entry per wire packet; a message that fits in the MTU maps
    to a single packet of its own size.
    """
    if message_size <= 0:
        raise ValueError("message size must be positive")
    unit = tcp_mss(overlay) if tcp else udp_payload_per_fragment(overlay)
    if message_size <= unit:
        return (message_size,)
    full, rest = divmod(message_size, unit)
    sizes = [unit] * full
    if rest:
        sizes.append(rest)
    return tuple(sizes)
