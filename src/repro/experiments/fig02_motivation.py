"""Figure 2 — motivation: overlay vs native on 10G and 100G links.

Four panels:

(a) single-flow throughput, 64 KB messages, UDP and TCP, 10G vs 100G —
    the overlay is near-native when the slow link is the bottleneck and
    loses heavily at 100G;
(b) single-flow UDP packet rate vs message size — the gap is largest for
    small packets and narrows with size;
(c) multi-flow packet rate at flow:core ratios 1:1 and 4:1 — imbalance
    from hash collisions amplifies the overlay penalty;
(d) single-flow round-trip-ish latency, UDP and TCP — the prolonged data
    path costs up to 2x (UDP) / 5x (TCP) in the paper.
"""

from __future__ import annotations

from repro.experiments.runner import ExperimentOutput, durations
from repro.metrics.report import Table
from repro.workloads.sockperf import Testbed, udp_plateau

_SIZES_B = (16, 256, 1024, 1400)


def run(quick: bool = False) -> ExperimentOutput:
    out = ExperimentOutput(
        "Figure 2", "Overlay vs native host network (motivation)"
    )
    dur = durations(quick, 20.0, 8.0)
    cases = [("Host", dict(mode="host")), ("Con", dict(mode="overlay"))]

    # --- (a) 64 KB single-flow throughput --------------------------------
    table_a = Table(
        ["link", "proto", "Host Gbps", "Con Gbps", "Con/Host"],
        title="(a) single-flow throughput, 64 KB messages",
    )
    series_a = {}
    links = (10.0, 100.0) if not quick else (100.0,)
    for bandwidth in links:
        for proto in ("udp", "tcp"):
            values = {}
            for label, kwargs in cases:
                if proto == "udp":
                    result = udp_plateau(
                        65507,
                        iterations=4 if quick else 8,
                        bandwidth_gbps=bandwidth,
                        **kwargs,
                        **dur,
                    )
                else:
                    bed = Testbed(bandwidth_gbps=bandwidth, **kwargs)
                    bed.add_tcp_flow(65507, window_msgs=16)
                    result = bed.run(**dur)
                values[label] = result.goodput_gbps
            ratio = values["Con"] / values["Host"] if values["Host"] else 0.0
            table_a.add_row(
                f"{bandwidth:.0f}G", proto, values["Host"], values["Con"], ratio
            )
            series_a[(bandwidth, proto)] = (values["Host"], values["Con"])
    out.tables.append(table_a)
    out.series["throughput_64k"] = series_a

    # --- (b) UDP packet rate vs message size ------------------------------
    table_b = Table(
        ["size B", "Host kpps", "Con kpps", "Con/Host"],
        title="(b) single-flow UDP packet rate vs message size (100G)",
    )
    series_b = {}
    sizes = _SIZES_B if not quick else (16, 1400)
    for size in sizes:
        values = {}
        for label, kwargs in cases:
            bed = Testbed(**kwargs)
            bed.add_udp_flow(size, clients=3)
            values[label] = bed.run(**dur).message_rate_pps
        table_b.add_row(
            size,
            values["Host"] / 1e3,
            values["Con"] / 1e3,
            values["Con"] / values["Host"] if values["Host"] else 0.0,
        )
        series_b[size] = (values["Host"], values["Con"])
    out.tables.append(table_b)
    out.series["pktrate_vs_size"] = series_b

    # --- (c) multi-flow packet rate at two flow:core ratios ---------------
    # Fixed per-flow rates sized so the host network always keeps up:
    # every packet-rate loss is then attributable to overlay flows being
    # individually more expensive, which turns steering collisions into
    # overloaded cores — and collisions multiply with the flow:core ratio.
    table_c = Table(
        ["flows:cores", "Host kpps", "Con kpps", "Con/Host"],
        title="(c) multi-flow UDP packet rate, 1 KB @ 150 kpps/flow (RPS on)",
    )
    series_c = {}
    ratios = ((4, 4), (16, 4)) if not quick else ((16, 4),)
    for flows, cores in ratios:
        values = {}
        for label, kwargs in cases:
            bed = Testbed(
                rps_cpus=list(range(1, cores + 1)),
                app_cpus=list(range(10, 16)),
                **kwargs,
            )
            for _ in range(flows):
                bed.add_udp_flow(1024, rate_pps=150_000.0)
            values[label] = bed.run(**dur).message_rate_pps
        table_c.add_row(
            f"{flows}:{cores}",
            values["Host"] / 1e3,
            values["Con"] / 1e3,
            values["Con"] / values["Host"] if values["Host"] else 0.0,
        )
        series_c[(flows, cores)] = (values["Host"], values["Con"])
    out.tables.append(table_c)
    out.series["multiflow"] = series_c

    # --- (d) latency -------------------------------------------------------
    table_d = Table(
        ["proto", "Host us", "Con us", "Con/Host"],
        title="(d) single-flow latency (moderate fixed rate, 100G)",
    )
    series_d = {}
    for proto in ("udp", "tcp"):
        values = {}
        for label, kwargs in cases:
            bed = Testbed(**kwargs)
            if proto == "udp":
                bed.add_udp_flow(16, rate_pps=250_000, poisson=True)
            else:
                bed.add_tcp_flow(4096, window_msgs=64, rate_pps=60_000)
            values[label] = bed.run(**dur).avg_latency_us
        table_d.add_row(
            proto,
            values["Host"],
            values["Con"],
            values["Con"] / values["Host"] if values["Host"] else 0.0,
        )
        series_d[proto] = (values["Host"], values["Con"])
    out.tables.append(table_d)
    out.series["latency"] = series_d
    return out
