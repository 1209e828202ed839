"""Physical NIC driver stage (``mlx5e_napi_poll``).

The first softirq stage: allocate the ``sk_buff`` for each descriptor and
run GRO. For TCP with large messages these two functions each consume
~45% of a core (Figure 9a) — the stage Falcon's GRO splitting divides.
"""

from __future__ import annotations

from typing import List, Optional

from repro.kernel.costs import CostModel
from repro.kernel.gro import GroCluster
from repro.kernel.skb import Skb
from repro.kernel.stages import Step


def skb_alloc_step(costs: CostModel) -> Step:
    return Step.simple("skb_alloc", costs.skb_alloc)


def gro_step(costs: CostModel, gro: Optional[GroCluster]) -> Step:
    """``napi_gro_receive``: full merge work for TCP, a quick look for UDP.

    When GRO is disabled (``gro is None``) the function degenerates to the
    cheap examine-and-pass path for all traffic. Both prices are
    ``fixed + per_byte * size``, computed as :meth:`FuncCost.cost` does
    but without its call.
    """
    check_fixed = costs.gro_check.fixed
    check_per_byte = costs.gro_check.per_byte
    merge_fixed = costs.napi_gro_receive.fixed
    merge_per_byte = costs.napi_gro_receive.per_byte
    merges_tcp = gro is not None

    def cost(skb: Skb) -> float:
        if merges_tcp and skb.is_tcp:
            return merge_fixed + merge_per_byte * skb.size
        return check_fixed + check_per_byte * skb.size

    effect = None if gro is None else gro.feed

    return Step("napi_gro_receive", cost, effect)


def rps_steer_step(costs: CostModel) -> Step:
    """``get_rps_cpu`` + ``enqueue_to_backlog`` on the steering core."""
    return Step.simple("rps_steer", costs.rps_steer)


def driver_steps(costs: CostModel, gro: Optional[GroCluster]) -> List[Step]:
    """The un-split driver stage."""
    return [skb_alloc_step(costs), gro_step(costs, gro), rps_steer_step(costs)]


def driver_first_half_steps(costs: CostModel) -> List[Step]:
    """GRO splitting: the first half keeps only skb allocation, then a
    ``netif_rx`` stage transition moves the packet."""
    return [skb_alloc_step(costs), Step.simple("netif_rx", costs.netif_rx)]


def driver_second_half_steps(
    costs: CostModel, gro: Optional[GroCluster]
) -> List[Step]:
    """GRO splitting: the offloaded half — GRO plus the RPS handoff."""
    return [
        Step.simple("process_backlog", costs.backlog_dequeue),
        gro_step(costs, gro),
        rps_steer_step(costs),
    ]
