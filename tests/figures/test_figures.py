"""The figure tier: every figure's headline claim and its pinned numbers.

Each figure in :data:`repro.experiments.run_all.FIGURES` runs in quick
mode. The test asserts the headline direction the paper reports (who
wins), then compares a digest of the figure's raw series with
``tests/goldens/figures.json``: a change that moves any number by one
ulp fails here. Re-pin an intended change with
``python -m repro.cli validate --regen-goldens``.

The digests are pinned under Python 3.11, the interpreter of CI's
``full`` job. Float ``sum`` differs between CPython minor versions
(3.12 compensates rounding), so under another interpreter the digest
tests fail without any change to the code; the headline tests do not.

Quick mode trims the sweeps; the claims only the full sweeps make are
checked case by case in ``test_sweep_claims.py``.

Run the tier with ``pytest -m slow tests/figures``.
"""

import functools
import importlib
import json

import pytest

from repro.experiments.run_all import FIGURES
from repro.validate.golden import (
    FIGURE_DIGESTS,
    default_golden_dir,
    figure_digest,
    python_version,
)


def check_fig02(series):
    # (b) the overlay's packet-rate deficit is largest for small packets.
    rates = series["pktrate_vs_size"]
    host_small, con_small = rates[min(rates)]
    assert con_small < 0.6 * host_small
    # (d) overlay latency is clearly above native for both protocols.
    for proto in ("udp", "tcp"):
        host_lat, con_lat = series["latency"][proto]
        assert con_lat > 1.2 * host_lat
    # (a) at 100G with 64 KB UDP messages the overlay loses most of native.
    host100, con100 = series["throughput_64k"][(100.0, "udp")]
    assert con100 / host100 < 0.7


def check_fig04(series):
    interrupts = series["interrupts"]
    # The overlay executes ~3x the device softirqs per packet (the paper's
    # Figure 4 NET_RX bars measure 3.6x).
    host_dev, con_dev = interrupts["device_softirqs"]
    assert host_dev == pytest.approx(1.0, abs=0.1)
    assert 2.5 < con_dev / host_dev < 4.0
    # Raise demand doubles (per-device raises incl. the steering hop).
    host_raises, con_raises = interrupts["NET_RX_raises"]
    assert 1.7 < con_raises / host_raises < 4.5
    # Hardware interrupt rate stays comparable (NAPI masks under load).
    host_hw, con_hw = interrupts["hardirq"]
    assert con_hw < 3.0 * max(host_hw, 1.0)


def check_fig05(series):
    # The overlay burns clearly more CPU than the host for the same rate.
    busy = series["total_busy"]
    assert busy["Con"] > 1.4 * busy["Host"]
    # Single flow: the overlay's softirq load is stacked on one core. The
    # busiest stage core (cpu 0 is the driver) carries most of it.
    _util, softirq = series["single"]["Con"]
    stage_softirq = softirq[1:]
    assert max(stage_softirq) > 0.6 * sum(stage_softirq)


def check_fig06(series):
    sockperf, memcached = series["sockperf"], series["memcached"]
    # All three poll functions appear with real weight in both workloads.
    for shares in (sockperf, memcached):
        for name in ("mlx5e_napi_poll", "gro_cell_poll", "process_backlog"):
            assert shares[name] > 0.02, name
    # sockperf: the overlay overhead shows up as additional,
    # comparably-weighted softirqs; no single poll function dominates.
    assert max(sockperf.values()) < 0.75 * sum(sockperf.values())


def check_fig09(series):
    # TCP 4 KB saturates the driver core; UDP and small TCP do not.
    driver = series["driver_util"]
    assert driver["TCP 4KB"] > 90.0
    assert driver["UDP 4KB"] < driver["TCP 4KB"]
    assert driver["TCP 1KB"] < driver["TCP 4KB"]
    # GRO splitting takes real load off the driver core.
    assert series["split_GRO-split"] < series["split_vanilla"] - 0.05


def check_fig10(series):
    for key, by_size in series.items():
        for size, values in by_size.items():
            # Falcon lands between the vanilla overlay and the host.
            assert values["Falcon"] >= values["Con"] * 0.95, (key, size)
            assert values["Con"] <= values["Host"] * 1.05, (key, size)
    # Headline: at 100G / 16 B, Falcon reaches a large fraction of native
    # while the vanilla overlay stays far behind.
    values = series[("4.19", 100.0)][16]
    assert values["Falcon"] > 0.75 * values["Host"]
    assert values["Con"] < 0.55 * values["Host"]


def check_fig11(series):
    cases = series["cases"]
    # Vanilla Linux uses at most three cores for one flow...
    assert len(cases["Host"]["cores_used"]) <= 3
    assert len(cases["Con"]["cores_used"]) <= 3
    # ...Falcon recruits more for the extra softirq stages...
    assert len(cases["Falcon"]["cores_used"]) >= len(cases["Con"]["cores_used"]) + 1
    # ...and converts them into throughput: well above Con, close to Host.
    assert cases["Falcon"]["rate"] > 1.5 * cases["Con"]["rate"]
    assert cases["Falcon"]["rate"] > 0.75 * cases["Host"]["rate"]


def check_fig12(series):
    # (a) underloaded UDP: Falcon's gain shows at the tail; the host
    # remains fastest on average.
    def case(load, mode):
        return series[(load, mode)]

    assert case("udp_under", "Falcon")["p99.9"] < case("udp_under", "Con")["p99.9"]
    assert case("udp_under", "Host")["avg"] < case("udp_under", "Falcon")["avg"]
    # (c) overloaded UDP: pipelining removes most of the queueing delay.
    assert case("udp_over", "Falcon")["p99"] < 0.7 * case("udp_over", "Con")["p99"]
    # (d) overloaded TCP: Falcon beats the vanilla overlay.
    assert case("tcp_over", "Falcon")["avg"] < case("tcp_over", "Con")["avg"]


def check_fig13(series):
    for (proto, kernel), by_flows in series.items():
        for flows, values in by_flows.items():
            # Falcon beats the vanilla overlay once there is steering
            # pressure (more than one flow).
            if flows >= 2:
                assert values["Falcon"] > values["Con"], (proto, kernel, flows)
    # TCP: GRO splitting helps the host network too (Host+ >= Host), and
    # Falcon can beat even the plain host network (the paper: up to 37%).
    values = series[("tcp", "4.19")][max(series[("tcp", "4.19")])]
    assert values["Host+"] >= values["Host"] * 0.98
    assert values["Falcon"] > values["Host"] * 0.9


def check_fig14(series):
    for proto, by_count in series.items():
        gains = [by_count[count]["gain"] for count in sorted(by_count)]
        # Falcon helps at moderate load, never costs much once the system
        # saturates (the load gate turns it off), and its benefit fades
        # as utilization rises.
        assert max(gains) > 3.0, proto
        assert min(gains) > -5.0, proto
        assert gains[-1] <= max(gains), proto


def check_fig15(series):
    moderate = series["moderate"]
    # A high-but-not-disabled threshold (90%) beats a conservative one.
    assert moderate["90%"] > moderate["70%"]
    # Every Falcon setting beats vanilla at moderate load.
    for label, value in moderate.items():
        assert value >= moderate["vanilla"] * 0.97, label


def check_fig16(series):
    # Two-choice balancing resolves the hotspot. Quick mode runs one
    # short seed, so only no-regression is asserted on the mean (the
    # gain over several seeds is in test_sweep_claims.py)...
    assert series["gain"] > 0.99
    # ...and every seed's dynamic run keeps up with its static run.
    for static, dynamic in zip(series["static"], series["two_choice"]):
        assert dynamic >= static * 0.99


def check_fig17(series):
    # The overall operation rate rises with Falcon.
    total_con, total_falcon = series["total_ops"]
    assert total_falcon > 1.05 * total_con


def check_fig18(series):
    # Ten clients: Falcon cuts both the average and the tail substantially
    # (the paper: 51% / 53%).
    ten = series[10]
    assert ten["Falcon"]["avg"] < 0.75 * ten["Con"]["avg"]
    assert ten["Falcon"]["p99"] < 0.8 * ten["Con"]["p99"]


def check_fig19(series):
    for rate, data in series["by_rate"].items():
        cpu, raises = data["cpu"], data["raises"]
        # Falcon raises more (smaller) softirqs than the vanilla overlay,
        # yet its total CPU cost stays close (the paper: <= ~10% more).
        assert raises["Falcon"] > raises["Con"], rate
        assert cpu["Falcon"] < 1.25 * cpu["Con"], rate
        # Both overlay variants cost more than the native host network.
        assert cpu["Con"] > cpu["Host"], rate


def check_fig20(series):
    # Every shard count simulates the identical run.
    simulated = ("messages_delivered", "windows_run", "records_exchanged", "events")
    by_shards = series["by_shards"]
    rows = {tuple(row[key] for key in simulated) for row in by_shards.values()}
    assert len(by_shards) >= 2 and len(rows) == 1


def check_fig21(series):
    # (a) under stress, the warm ONCache regimes deliver more than vanilla.
    regimes = series["regimes"]
    for label in ("ONCache", "ONC+Falcon"):
        assert regimes[label]["pps"] > regimes["Con"]["pps"], label
    # (b) the hit rate collapses once the flows outnumber the cache
    # entries, and is near 1 at or below capacity.
    sweeps = {key[1]: sweep for key, sweep in series.items() if key != "regimes"}
    assert any(flows > cap for cap, sweep in sweeps.items() for flows in sweep)
    for capacity, sweep in sweeps.items():
        for flows, point in sweep.items():
            if flows > capacity:
                assert point["hit_rate"] < 0.6, (capacity, flows)
            else:
                assert point["hit_rate"] > 0.95, (capacity, flows)


@functools.lru_cache(maxsize=None)
def quick_run(name):
    """Each figure runs once per session; both tests below read it."""
    return importlib.import_module(f"repro.experiments.{name}").run(quick=True)


@pytest.mark.slow
@pytest.mark.parametrize("name", FIGURES)
def test_figure_headline(name):
    out = quick_run(name)
    assert out.series and out.tables, name
    for table in out.tables:
        assert table.rows, f"{name}: empty table {table.title!r}"
    assert out.figure in out.render()
    # Each figure's headline check is named after its number: check_fig02.
    globals()["check_" + name.split("_")[0]](out.series)


@pytest.mark.slow
@pytest.mark.parametrize("name", FIGURES)
def test_figure_digest(name):
    out = quick_run(name)
    pinned = json.loads((default_golden_dir() / FIGURE_DIGESTS).read_text())
    assert figure_digest(out.series) == pinned["digests"].get(name), (
        f"{name}: the figure's numbers moved under Python {python_version()}; "
        f"the digests are pinned under Python {pinned['python']}, and float "
        f"sums differ between minor versions. If intended, re-pin with "
        f"`repro validate --regen-goldens`\n{out.render()}"
    )
