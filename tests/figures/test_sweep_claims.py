"""Claims only the full sweeps make, checked on the sub-case each needs.

Quick mode trims every figure's sweep (fewer links, flow counts, loads,
seeds and clients), so a few of the paper's claims never appear in the
quick ``series`` that ``test_figures.py`` asserts on. Each test here
runs just the case its claim needs, with the figure's own parameters, at
the smallest size at which the claim holds.
"""

import pytest

from repro.core.config import FalconConfig
from repro.experiments import fig13_multiflow, fig15_threshold, fig17_webserving
from repro.experiments.runner import durations, falcon_config
from repro.workloads.memcached import run_memcached
from repro.workloads.multiflow import (
    run_hotspot,
    run_multicontainer,
    run_multiflow_tcp,
    run_multiflow_udp,
)
from repro.workloads.sockperf import Experiment

pytestmark = pytest.mark.slow

QUICK = durations(True, 20.0, 8.0)


def con_over_host(run_case):
    """The overlay's share of the host network's result."""
    return run_case(mode="overlay") / run_case(mode="host")


def test_fig02a_overlay_gap_is_smaller_on_a_slow_link():
    """Fig. 2(a): with 64 KB UDP messages the overlay loses most of native
    at 100G, and less at 10G, where the link bounds the host network."""

    def ratio(bandwidth):
        return con_over_host(
            lambda **mode: Experiment(bandwidth_gbps=bandwidth, **mode)
            .run_udp_plateau(65507, iterations=4, **QUICK)
            .goodput_gbps
        )

    ratio_100 = ratio(100.0)
    assert ratio_100 < 0.7
    assert ratio(10.0) > ratio_100


def test_fig02c_overlay_loss_grows_with_flow_to_core_ratio():
    """Fig. 2(c): steering collisions multiply with the flow:core ratio,
    and each collision hurts the costlier overlay flows more."""

    def ratio(flows):
        return con_over_host(
            lambda **mode: run_multiflow_udp(
                flows,
                message_size=1024,
                rate_per_flow=150_000.0,
                rps_cpus=[1, 2, 3, 4],
                **mode,
                **QUICK,
            ).message_rate_pps
        )

    assert ratio(16) < ratio(4)


def test_fig13_falcon_wins_on_kernel_5_4():
    """Fig. 13(b, d): the kernel-4.19 results carry over to kernel 5.4."""
    dur = durations(True, 15.0, 8.0)
    layout = dict(
        rps_cpus=fig13_multiflow.RPS, app_cpus=fig13_multiflow.APPS, kernel="5.4", **dur
    )
    cpus = fig13_multiflow.FALCON_CPUS
    for flows in fig13_multiflow.QUICK_FLOWS:
        udp = {
            label: run_multiflow_udp(
                flows, message_size=16, **kwargs, **layout
            ).message_rate_pps
            for label, kwargs in (
                ("Con", dict(mode="overlay")),
                ("Falcon", dict(mode="overlay", falcon=falcon_config(cpus=cpus))),
            )
        }
        assert udp["Falcon"] > udp["Con"], flows
        split = falcon_config(cpus=cpus, split_gro=True)
        tcp = {
            label: run_multiflow_tcp(
                flows, message_size=4096, window_msgs=64, **kwargs, **layout
            ).message_rate_pps
            for label, kwargs in (
                ("Host", dict(mode="host")),
                ("Host+", dict(mode="host", falcon=split)),
                ("Con", dict(mode="overlay")),
                ("Falcon", dict(mode="overlay", falcon=split)),
            )
        }
        assert tcp["Falcon"] > tcp["Con"], flows
    # At the most flows, GRO splitting helps the host network too, and
    # Falcon comes close to (or beats) the plain host network.
    assert tcp["Host+"] >= tcp["Host"] * 0.98
    assert tcp["Falcon"] > tcp["Host"] * 0.9


def test_fig15_always_on_does_not_beat_the_gate_under_high_load():
    """Fig. 15, high load (24 containers): always-on parallelization
    steals cycles the flows need, so it does not beat the 90% gate."""
    receiving = fig15_threshold.RECEIVING

    def rate(falcon):
        return run_multicontainer(
            24,
            message_size=1024,
            proto="udp",
            falcon=falcon,
            receiving_cpus=list(receiving),
            rate_per_flow=220_000.0,
            **durations(True, 15.0, 8.0),
        ).message_rate_pps

    gated = rate(FalconConfig(cpus=list(receiving), load_threshold=0.9))
    always_on = rate(FalconConfig(cpus=list(receiving), threshold_enabled=False))
    assert always_on <= gated * 1.05


def test_fig16_two_choice_beats_static_across_seeds():
    """Fig. 16 and the balancing ablation: on the hotspot, two-choice
    balancing beats static hashing on the mean over several seeds (the
    paper reports ~18% for UDP), and static hashing never reorders."""
    runs = {
        policy: [
            run_hotspot(policy, seed=seed, duration_ms=8, warmup_ms=4, burst_at_ms=2)
            for seed in (0, 1, 2, 3)
        ]
        for policy in ("static", "two_choice")
    }
    mean = {
        policy: sum(r.message_rate_pps for r in results) / len(results)
        for policy, results in runs.items()
    }
    assert mean["two_choice"] > 1.03 * mean["static"]
    assert all(r.reordered_messages == 0 for r in runs["static"])


def test_fig17_falcon_improves_most_operations():
    """Fig. 17 (full windows): Falcon raises the overall operation rate
    by more than 20%, and improves all but at most one operation type on
    both the rate and the response time."""
    series = fig17_webserving.run(quick=False).series
    total_con, total_falcon = series["total_ops"]
    assert total_falcon > 1.2 * total_con
    per_op = series["per_op"]
    more_ops = [n for n, d in per_op.items() if d["ops"][1] > d["ops"][0]]
    faster = [n for n, d in per_op.items() if d["response_ms"][1] < d["response_ms"][0]]
    assert len(more_ops) >= len(per_op) - 1
    assert len(faster) >= len(per_op) - 1


def test_fig18_one_client_tail_is_no_worse():
    """Fig. 18, one client: the kernel is not the bottleneck, so Falcon
    changes the tail only slightly (the paper: ~7% better)."""
    dur = durations(True, 25.0, 12.0)
    p99 = {
        label: run_memcached(1, falcon=falcon, **dur).latency["p99"]
        for label, falcon in (("Con", None), ("Falcon", falcon_config()))
    }
    assert p99["Falcon"] < 1.1 * p99["Con"]
