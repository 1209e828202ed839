"""Protocol-layer steps (IP / UDP / TCP receive).

These steps terminate a stack traversal: IP receive (with fragment
reassembly for UDP messages larger than the MTU), the L4 receive
function, and the socket enqueue. They are used twice on the overlay
path — once for the outer packet (see :mod:`repro.kernel.devices.vxlan`)
and once for the inner packet inside the container's namespace.
"""

from __future__ import annotations

from typing import List

from repro.kernel.costs import CostModel
from repro.kernel.defrag import DefragEngine
from repro.kernel.skb import Skb
from repro.kernel.stages import Step


def ip_rcv_step(costs: CostModel) -> Step:
    return Step.simple("ip_rcv", costs.ip_rcv)


def defrag_step(costs: CostModel, engine: DefragEngine) -> Step:
    """``ip_defrag``: reassemble UDP fragments; TCP passes straight through
    (its segments are either GRO-merged earlier or accumulate at the
    socket), as does an unfragmented UDP datagram, at no cost. The engine
    is the effect: its ``feed`` holds the pass-through rule."""

    def cost(skb: Skb) -> float:
        if skb.is_tcp or skb.frag_count == 1:
            return 0.0
        return costs.ip_defrag.cost(skb.size)

    return Step("ip_defrag", cost, engine.feed)


def l4_rcv_step(costs: CostModel) -> Step:
    """``udp_rcv`` or ``tcp_v4_rcv`` depending on the packet's protocol.

    The TCP cost includes ACK generation (``tcp_ack_tx``), charged per
    merged skb, matching how GRO amortizes ACK traffic. Both prices are
    computed as :meth:`FuncCost.cost` does, without its call.
    """
    tcp_fixed = costs.tcp_v4_rcv.fixed
    tcp_per_byte = costs.tcp_v4_rcv.per_byte
    ack_fixed = costs.tcp_ack_tx.fixed
    udp_fixed = costs.udp_rcv.fixed
    udp_per_byte = costs.udp_rcv.per_byte

    def cost(skb: Skb) -> float:
        if skb.is_tcp:
            return (tcp_fixed + tcp_per_byte * skb.size) + ack_fixed
        return udp_fixed + udp_per_byte * skb.size

    return Step("l4_rcv", cost)


def sock_enqueue_step(costs: CostModel) -> Step:
    return Step.simple("sock_enqueue", costs.sock_enqueue)


def stack_tail_steps(costs: CostModel, defrag: DefragEngine) -> List[Step]:
    """IP → defrag → L4 → socket: the end of any receive path."""
    return [
        ip_rcv_step(costs),
        defrag_step(costs, defrag),
        l4_rcv_step(costs),
        sock_enqueue_step(costs),
    ]
