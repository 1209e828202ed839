"""Tests for the plateau-search methodology."""

import pytest

from repro.workloads.sockperf import Testbed, udp_plateau

FAST = dict(warmup_ms=3.0, measure_ms=6.0)


class TestPlateauSearch:
    def test_small_messages_short_circuit_to_stress(self):
        """Messages that fit one MTU have no reassembly fragility: if the
        sender can't overload the receiver, stress == plateau in one run."""
        plateau = udp_plateau(64, clients=1, iterations=2, mode="host", **FAST)
        # A single 64 B client is sender-bound: delivered == offered.
        assert plateau.message_rate_pps == pytest.approx(
            plateau.offered_pps, rel=0.05
        )

    def test_fragmented_plateau_has_low_loss(self):
        """The binary search must land at a rate the stack sustains."""
        result = udp_plateau(
            9000, clients=2, warmup_ms=4.0, measure_ms=8.0, iterations=5,
            mode="overlay",
        )
        assert result.messages_delivered > 0
        assert result.message_rate_pps >= result.offered_pps * 0.9

    def test_fragmented_plateau_beats_naive_stress(self):
        """Saturating clients collapse fragmented-UDP goodput (every lost
        fragment kills a datagram); the plateau search must do better."""
        bed = Testbed(mode="overlay")
        bed.add_udp_flow(9000, clients=3)
        stress = bed.run(**FAST)
        plateau = udp_plateau(9000, clients=3, iterations=5, mode="overlay", **FAST)
        assert plateau.message_rate_pps > stress.message_rate_pps
