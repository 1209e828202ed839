#!/usr/bin/env python3
"""Scenario: both hosts fully simulated (transmit + receive paths).

The figure-reproduction harness models senders as calibrated pacing
sources because the paper instruments reception. This example instead
simulates *both* testbed machines: the sender's ``sendmsg`` walk
(container stack → bridge → VXLAN encapsulation → qdisc) runs on the
sending host's cores via :class:`repro.kernel.tx.TxStack`, and the wire
frames feed the receiving host's full softirq pipeline.

It prints where the CPU went on each side — making the paper's §2
asymmetry visible: transmit cost lands in the sender's process context
(no serialization pathology), while receive cost is softirq work that
vanilla steering piles onto one core.

Run:  python examples/two_host_duplex.py
"""

from repro.core.config import FalconConfig
from repro.hw.topology import Machine
from repro.kernel.costs import CostModel
from repro.kernel.skb import PROTO_UDP, FlowKey
from repro.kernel.stack import StackConfig
from repro.kernel.tx import TxStack
from repro.metrics.report import Table
from repro.overlay.host import Host
from repro.sim.engine import Simulator
from repro.sim.stats import LatencyRecorder

RATE_PPS = 200_000.0
MESSAGE_BYTES = 512
DURATION_US = 30_000.0


def run_case(falcon):
    sim = Simulator()
    receiver = Host(
        sim, StackConfig(mode="overlay", falcon=falcon), num_cpus=12, name="rx"
    )
    link = receiver.attach_ingress(100.0)
    sender = Machine(sim, num_cpus=4, name="tx")
    tx = TxStack(sender, link, CostModel(), overlay=True)

    container = receiver.launch_container("server")
    flow = FlowKey.make(
        0x0B000001, container.private_ip, PROTO_UDP, flow_id=receiver.ctx.new_flow_id()
    )
    latency = LatencyRecorder()
    receiver.stack.open_socket(
        flow, app_cpu=2, on_message=lambda s, skb, lat: latency.record(lat)
    )

    interval = 1e6 / RATE_PPS
    count = int(DURATION_US / interval)
    for index in range(count):
        sim.schedule(
            index * interval,
            tx.send_message,
            flow,
            MESSAGE_BYTES,
            1,  # sender app core
            lambda skb: receiver.stack.inject(skb),
            index,
        )
    sim.run(until=DURATION_US + 20_000.0)
    return sender, receiver, latency, tx


def busy_row(machine, cores):
    window = machine.sim.now
    return " ".join(
        f"cpu{index}:{machine.acct.busy_us(index) / window:.0%}"
        for index in cores
        if machine.acct.busy_us(index) / window > 0.02
    )


def main() -> None:
    table = Table(
        ["case", "avg us", "p99 us", "sender cores", "receiver cores"],
        title=f"two-host overlay, {MESSAGE_BYTES} B @ {RATE_PPS/1e3:.0f} kpps",
    )
    for name, falcon in (("vanilla", None), ("Falcon", FalconConfig())):
        sender, receiver, latency, tx = run_case(falcon)
        table.add_row(
            name,
            latency.mean,
            latency.percentile(99),
            busy_row(sender, range(4)),
            busy_row(receiver.machine, range(8)),
        )
    print(table.render())
    print()
    print(
        "The sender burns one process-context core on sendmsg+encap in\n"
        "both cases; only the receiver's softirq side changes shape —\n"
        "the asymmetry that makes reception the right place for Falcon."
    )


if __name__ == "__main__":
    main()
