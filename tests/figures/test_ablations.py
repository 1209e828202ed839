"""Ablations and extensions: claims beyond the paper's figures.

Each test isolates one design choice the paper argues for in prose
(pipelining vs locality, NUMA placement, stage stacking, RPS vs RFS) or
one extension the paper leaves as future work (dynamic GRO splitting,
tenant-fair FALCON_CPUS), runs it at quick-mode sizes, and asserts the
direction of the result.
"""

from dataclasses import replace

import pytest

from repro.core.config import FalconConfig
from repro.core.dynamic import attach_dynamic_splitting
from repro.core.fairshare import use_fair_share
from repro.hw.cache import LocalityModel
from repro.kernel.costs import FuncCost
from repro.kernel.stack import NetworkStack
from repro.sim.stats import LatencyRecorder
from repro.workloads.sockperf import Testbed

pytestmark = pytest.mark.slow

RUN = dict(warmup_ms=4, measure_ms=8)


def test_locality_tax_is_second_order():
    """Section 6.3: Falcon's lost cache locality costs little, because
    the vanilla overlay's locality is already poor. Re-run the
    single-flow stress with the locality model off (uniform multipliers,
    free context switches)."""

    def stress(falcon, locality_off):
        bed = Testbed(mode="overlay", falcon=falcon)
        if locality_off:
            # Rebuild the stack so its stages use the new cost model.
            bed.host.config.costs = replace(
                bed.stack.costs, softirq_switch=FuncCost(0.0)
            )
            bed.host.stack = NetworkStack(bed.sim, bed.host.machine, bed.host.config)
            bed.host.machine.locality = LocalityModel.uniform()
            bed.stack = bed.window.stack = bed.host.stack
        bed.add_udp_flow(16, clients=3)
        return bed.run(**RUN).message_rate_pps

    falcon_on, falcon_off = stress(FalconConfig(), False), stress(FalconConfig(), True)
    con_off = stress(None, True)
    # Removing locality costs helps Falcon (it pays cross-core taxes)...
    assert falcon_off >= falcon_on * 0.99
    # ...but pipelining, not locality, is the headline: Falcon with
    # locality costs still far exceeds Con without them.
    assert falcon_on > 1.5 * con_off


def test_numa_placement_of_falcon_cpus():
    """Every stage hop Falcon adds costs more across the socket boundary
    (cores 0-9 are socket 0 with the NIC and RPS cores, 10-19 socket 1)."""

    def run_case(cpus):
        bed = Testbed(mode="overlay", falcon=FalconConfig(cpus=cpus))
        bed.add_udp_flow(16, clients=3)
        stress = bed.run(**RUN)
        bed = Testbed(mode="overlay", falcon=FalconConfig(cpus=cpus))
        bed.add_udp_flow(16, clients=1, rate_pps=300_000, poisson=True)
        return stress.message_rate_pps, bed.run(**RUN).latency["avg"]

    local_rate, local_avg = run_case([3, 4, 5, 6])
    remote_rate, remote_avg = run_case([13, 14, 15, 16])
    # Remote placement pays the cross-socket tax on every stage hop but
    # stays a large win over the vanilla overlay (~0.44 Mpps).
    assert remote_rate <= local_rate * 1.02
    assert remote_rate > 700_000.0
    # Latency orders the same way.
    assert local_avg <= remote_avg * 1.05


def test_stage_stacking_returns_diminish():
    """Footnote 1 of Section 4.1: with one Falcon CPU both overlay stages
    stack on it; with more they pipeline, up to one core per stage."""

    def stress(falcon):
        bed = Testbed(mode="overlay", falcon=falcon)
        bed.add_udp_flow(16, clients=3)
        return bed.run(**RUN).message_rate_pps

    vanilla = stress(None)
    rates = {
        len(cpus): stress(FalconConfig(cpus=cpus))
        for cpus in ([3], [3, 4, 5, 6], [3, 4, 5, 6, 7, 8, 9, 10])
    }
    # One dedicated Falcon core already helps (both stages leave the RPS
    # core), more pipeline the stages, and nothing is gained beyond the
    # stage count.
    assert rates[1] > vanilla
    assert rates[4] >= rates[1]
    assert rates[8] <= rates[4] * 1.15


def test_steering_rps_vs_rfs_vs_falcon():
    """RFS steers the whole flow next to its reader: for an overlay flow
    that serializes every softirq stage and the app on one core. Falcon
    makes the opposite trade."""
    cases = {
        "RPS": dict(steering="rps"),
        "RFS": dict(steering="rfs"),
        "Falcon": dict(steering="rps", falcon=FalconConfig()),
    }

    def run_case(kwargs, rate):
        # Readers on their own core: with steering over [1, 2] a flow
        # must never land on the reader's core, or softirq work (higher
        # priority) starves the application outright.
        bed = Testbed(mode="overlay", rps_cpus=[1, 2], app_cpus=[9], **kwargs)
        if rate is None:
            bed.add_udp_flow(16, clients=3)
        else:
            bed.add_udp_flow(16, clients=1, rate_pps=rate, poisson=True)
        return bed.run(**RUN)

    stress = {name: run_case(kw, None).message_rate_pps for name, kw in cases.items()}
    light = {name: run_case(cases[name], 150_000).latency["avg"] for name in cases}
    # Under stress, Falcon's parallelism dominates either steering flavour.
    assert stress["Falcon"] > 1.5 * stress["RPS"]
    assert stress["Falcon"] > 1.5 * stress["RFS"]
    # RFS pathology: once the flow saturates the app's core, softirqs
    # starve the reader, so locality-first steering collapses.
    assert stress["RFS"] < 0.5 * stress["RPS"]
    # At light load the locality trade is small either way.
    assert light["RFS"] < light["RPS"] * 1.6


def test_dynamic_gro_splitting_matches_best_static_choice():
    """Section 6.4 future work: a controller toggles GRO splitting from
    the driver core's load, so GRO-heavy phases get the split and light
    ones never pay its extra hop."""

    def run_phase(split, heavy):
        # "always" is the static split; "dynamic" hands it to the controller.
        falcon = FalconConfig(cpus=[3, 4, 5, 6], split_gro=split != "never")
        bed = Testbed(mode="host" if heavy else "overlay", falcon=falcon)
        controller = None
        if split == "dynamic":
            controller = attach_dynamic_splitting(bed.stack, patience=2)
        if heavy:  # two TCP 4 KB streams saturate the driver core
            bed.add_tcp_flow(4096, window_msgs=128)
            bed.add_tcp_flow(4096, window_msgs=128)
        else:  # one light UDP flow, where splitting is pure overhead
            bed.add_udp_flow(128, clients=1, rate_pps=150_000, poisson=True)
        return bed.run(warmup_ms=4, measure_ms=12), controller

    heavy_never, _ = run_phase("never", heavy=True)
    heavy_dynamic, heavy_controller = run_phase("dynamic", heavy=True)
    # Heavy phase: the controller activates and recovers the split's
    # throughput advantage over never splitting.
    assert heavy_controller.activations >= 1
    assert heavy_dynamic.message_rate_pps >= heavy_never.message_rate_pps * 0.98
    light_always, _ = run_phase("always", heavy=False)
    light_dynamic, light_controller = run_phase("dynamic", heavy=False)
    # Light phase: it never activates, so it skips the extra hop.
    assert light_controller.activations == 0
    assert light_dynamic.latency["avg"] <= light_always.latency["avg"]


def test_fair_share_protects_victim_tenant():
    """Section 6.4 asks for fair per-tenant allocation of Falcon cycles:
    a paced victim tenant against a noisy tenant's saturating flow, under
    vanilla, shared Falcon and partitioned (fair-share) Falcon."""

    def run_case(policy):
        falcon = None if policy == "vanilla" else FalconConfig(cpus=[3, 4, 5, 6])
        bed = Testbed(mode="overlay", falcon=falcon, app_cpus=[9, 10])
        balancer = None
        if policy == "fairshare":
            balancer = use_fair_share(bed.stack.falcon, {"victim": 1, "noisy": 1})
        latency = LatencyRecorder()
        victim = bed.add_udp_flow(
            512,
            clients=1,
            rate_pps=60_000,
            poisson=True,
            on_message=lambda s, skb, lat: latency.record(lat),
        )
        noisy = bed.add_udp_flow(16, clients=3)  # saturating elephant
        if balancer is not None:
            balancer.assign_flow(victim, "victim")
            balancer.assign_flow(noisy, "noisy")
        return bed.run(warmup_ms=4, measure_ms=10).message_rate_pps, latency

    vanilla_pps, _ = run_case("vanilla")
    _, shared = run_case("falcon")
    fair_pps, fair = run_case("fairshare")
    # Partitioning keeps the victim's stage cores clear of the elephant...
    assert fair.percentile(99) < shared.percentile(99)
    # ...and keeps most of Falcon's aggregate gain over vanilla.
    assert fair_pps > 1.2 * vanilla_pps
