"""VXLAN tunnel device.

Two pieces of the overlay path live here (Figure 3):

* the tail of the *host* stack — outer ``ip_rcv`` / ``udp_rcv`` leading
  into ``vxlan_rcv``, which strips the outer headers (decapsulation) and
  raises the second softirq;
* the VXLAN device's own poll function ``gro_cell_poll``, which feeds the
  inner packet back into ``netif_receive_skb``.
"""

from __future__ import annotations

from typing import List, Optional

from repro.kernel.costs import VXLAN_OVERHEAD, CostModel
from repro.kernel.skb import Skb
from repro.kernel.stages import Step


def outer_stack_steps(costs: CostModel) -> List[Step]:
    """Host-stack processing of the encapsulated (outer) packet."""

    def decap(skb: Skb, _cpu_index: int) -> Optional[Skb]:
        skb.decapsulate(VXLAN_OVERHEAD)
        return skb

    return [
        Step.simple("process_backlog", costs.backlog_dequeue),
        Step.simple("ip_rcv", costs.ip_rcv),
        Step.simple("udp_rcv", costs.udp_rcv_outer),
        Step.simple("vxlan_rcv", costs.vxlan_rcv, decap),
        Step.simple("netif_rx", costs.netif_rx),
    ]


def gro_cell_poll_step(costs: CostModel) -> Step:
    """The VXLAN device's NAPI poll picking the inner packet back up."""
    return Step.simple("gro_cell_poll", costs.gro_cell_poll)
