"""Unit tests: experiment runner helpers, stack config, misc plumbing."""

import pytest

from repro.core.config import FalconConfig
from repro.experiments.runner import (
    ExperimentOutput,
    durations,
    falcon_config,
    standard_modes,
)
from repro.hw.topology import Machine
from repro.kernel.stack import MODE_HOST, MODE_OVERLAY, NetworkStack, StackConfig
from repro.metrics.report import Table
from repro.sim.engine import Simulator
from repro.sim.errors import ConfigurationError
from repro.workloads.apps import ResponseChannel
from repro.hw.link import Link
from repro.kernel.costs import CostModel
from repro.kernel.skb import PROTO_TCP, FlowKey


class TestRunner:
    def test_standard_modes_labels(self):
        labels = [label for label, _kw in standard_modes()]
        assert labels == ["Host", "Con", "Falcon"]

    def test_standard_modes_without_host(self):
        labels = [label for label, _kw in standard_modes(include_host=False)]
        assert labels == ["Con", "Falcon"]

    def test_falcon_overrides_forwarded(self):
        modes = dict(standard_modes(falcon_overrides=dict(split_gro=True)))
        assert modes["Falcon"]["falcon"].split_gro

    def test_falcon_config_defaults(self):
        config = falcon_config()
        assert config.cpus == [3, 4, 5, 6]

    def test_durations_quick_scales_down(self):
        full = durations(False, 20.0, 10.0)
        quick = durations(True, 20.0, 10.0)
        assert quick["duration_ms"] < full["duration_ms"]
        assert quick["warmup_ms"] < full["warmup_ms"]

    def test_experiment_output_render(self):
        out = ExperimentOutput("Figure X", "demo")
        table = Table(["a"], title="t")
        table.add_row(1)
        out.tables.append(table)
        text = out.render()
        assert "Figure X" in text
        assert "demo" in text
        assert "t" in text


class TestStackConfig:
    def test_unknown_mode_rejected(self):
        sim = Simulator()
        machine = Machine(sim, num_cpus=4)
        with pytest.raises(ConfigurationError):
            NetworkStack(sim, machine, StackConfig(mode="bridge"))

    def test_costs_override_wins_over_kernel(self):
        custom = CostModel.kernel_5_4()
        config = StackConfig(mode=MODE_HOST, kernel="4.19", costs=custom)
        assert config.resolve_costs() is custom

    def test_host_mode_has_no_overlay_stages(self):
        sim = Simulator()
        machine = Machine(sim, num_cpus=4)
        stack = NetworkStack(sim, machine, StackConfig(mode=MODE_HOST))
        assert "vxlan" not in stack.stages
        assert not stack.is_overlay

    def test_falcon_requires_valid_cpus(self):
        sim = Simulator()
        machine = Machine(sim, num_cpus=4)
        config = StackConfig(
            mode=MODE_OVERLAY, falcon=FalconConfig(cpus=[99])
        )
        with pytest.raises(ConfigurationError):
            NetworkStack(sim, machine, config)

    def test_rps_disabled_keeps_processing_on_irq_core(self):
        sim = Simulator()
        machine = Machine(sim, num_cpus=4)
        stack = NetworkStack(
            sim, machine, StackConfig(mode=MODE_HOST, rps_cpus=None)
        )
        assert stack.rps is None

    def test_overlay_ifindexes_in_path_order(self):
        sim = Simulator()
        machine = Machine(sim, num_cpus=4)
        stack = NetworkStack(sim, machine, StackConfig(mode=MODE_OVERLAY))
        assert stack.overlay_ifindexes == [3, 5]

    def test_gro_split_requires_falcon(self):
        sim = Simulator()
        machine = Machine(sim, num_cpus=8)
        config = StackConfig(
            mode=MODE_HOST, falcon=FalconConfig(cpus=[3], split_gro=True)
        )
        stack = NetworkStack(sim, machine, config)
        assert "pnic_gro" in stack.stages


class TestResponseChannel:
    def test_response_charges_worker_and_delivers(self):
        sim = Simulator()
        machine = Machine(sim, num_cpus=2)
        link = Link(sim, 100.0, propagation_us=1.0)
        channel = ResponseChannel(machine, link, CostModel(), overlay=False)
        delivered = []
        channel.respond(0, 550, lambda: delivered.append(sim.now))
        sim.run()
        assert len(delivered) == 1
        assert machine.acct.busy_us_label(0, "response_tx") > 0
        assert channel.responses_sent == 1

    def test_acks_injected_per_segments(self):
        sim = Simulator()
        machine = Machine(sim, num_cpus=2)
        link = Link(sim, 100.0)

        class FakeStack:
            def __init__(self):
                self.injected = []

            def inject(self, skb):
                self.injected.append(skb)
                return True

        stack = FakeStack()
        channel = ResponseChannel(
            machine, link, CostModel(), overlay=True,
            ack_stack=stack, ack_link=link,
        )
        flow = FlowKey.make(1, 2, PROTO_TCP, flow_id=1)
        channel.respond(0, 24_000, lambda: None, flow=flow)
        sim.run()
        # 24 KB -> 17 segments -> 8 delayed ACKs.
        assert len(stack.injected) == 8
        assert all(skb.meta == "ctl" for skb in stack.injected)
        assert all(skb.encapsulated for skb in stack.injected)

    def test_no_acks_without_flow(self):
        sim = Simulator()
        machine = Machine(sim, num_cpus=1)
        link = Link(sim, 100.0)
        channel = ResponseChannel(
            machine, link, CostModel(), overlay=False, ack_stack=object()
        )
        channel.respond(0, 1000, lambda: None)
        sim.run()
        assert channel.acks_injected == 0
