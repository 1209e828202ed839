"""Cross-validation: the closed-form model vs the simulator.

If the analytical capacities drift away from the simulated ones, either
the stage compositions in :mod:`repro.analysis.pipeline` no longer match
the stack builder or a cost change broke calibration — both worth
failing loudly on.
"""

import pytest

from repro.analysis import PipelineModel, mm1_waiting_time_us, predict_capacity_pps
from repro.core.config import FalconConfig
from repro.kernel.costs import CostModel
from repro.kernel.skb import PROTO_UDP
from repro.workloads.sockperf import Testbed

FAST = dict(warmup_ms=5.0, measure_ms=10.0)


class TestFormulas:
    def test_mm1_zero_at_zero_load(self):
        assert mm1_waiting_time_us(0.0, 1.0) == 0.0

    def test_mm1_diverges_at_saturation(self):
        assert mm1_waiting_time_us(1_000_000.0, 1.0) == float("inf")

    def test_mm1_grows_with_load(self):
        low = mm1_waiting_time_us(200_000.0, 1.0)
        high = mm1_waiting_time_us(800_000.0, 1.0)
        assert high > low > 0

    def test_bottleneck_identification(self):
        model = PipelineModel(CostModel(), 16, overlay=True)
        assert model.bottleneck("overlay").name == "rps_core(stacked)"
        # Falcon breaks the stack apart; the bottleneck moves to the
        # user-space copy or one of the smaller stages.
        assert model.bottleneck("falcon").service_us < model.bottleneck(
            "overlay"
        ).service_us

    def test_capacity_ordering(self):
        host = predict_capacity_pps("host", 16)
        overlay = predict_capacity_pps("overlay", 16)
        falcon = predict_capacity_pps("falcon", 16)
        assert overlay < falcon <= host * 1.2


class TestCrossValidation:
    @pytest.mark.parametrize("mode", ["host", "overlay", "falcon"])
    def test_capacity_matches_simulator(self, mode):
        """Predicted saturation rate within ±25% of the simulated one."""
        model = PipelineModel(
            CostModel(), 16, proto=PROTO_UDP, overlay=mode != "host"
        )
        predicted = model.capacity_pps(mode)
        kwargs = {"mode": "host"} if mode == "host" else {"mode": "overlay"}
        if mode == "falcon":
            kwargs["falcon"] = FalconConfig()
        bed = Testbed(**kwargs)
        bed.add_udp_flow(16, clients=4)
        measured = bed.run(**FAST)
        ratio = measured.message_rate_pps / predicted
        assert 0.75 < ratio < 1.25, (mode, predicted, measured.message_rate_pps)

    def test_latency_prediction_brackets_simulator(self):
        """At 60% of overlay capacity, predicted sojourn (M/M/1, an
        upper-leaning bound for deterministic service) must land within
        a factor-3 band of the simulated average receive latency."""
        model = PipelineModel(CostModel(), 16, overlay=True)
        capacity = model.capacity_pps("overlay")
        rate = 0.6 * capacity
        predicted = model.latency_us("overlay", rate)
        bed = Testbed(mode="overlay")
        bed.add_udp_flow(16, rate_pps=rate, poisson=True)
        measured = bed.run(**FAST)
        # The simulated number includes sender + wire + wakeup constants
        # the queueing model ignores; compare within a loose band.
        assert predicted < measured.avg_latency_us < predicted * 6 + 30
