"""Unit tests for link, NIC and locality models."""

import pytest

from repro.hw.cache import LocalityModel
from repro.hw.link import Link
from repro.hw.nic import Nic
from repro.kernel.skb import FlowKey, Skb
from repro.sim.engine import Simulator


class TestLink:
    def test_serialization_delay(self):
        sim = Simulator()
        link = Link(sim, bandwidth_gbps=10.0, propagation_us=0.0)
        assert link.serialization_us(1250) == pytest.approx(1.0)

    def test_frames_queue_fifo(self):
        sim = Simulator()
        link = Link(sim, bandwidth_gbps=10.0, propagation_us=0.5)
        arrivals = []
        link.send(1250, lambda: arrivals.append(sim.now))
        link.send(1250, lambda: arrivals.append(sim.now))
        sim.run()
        assert arrivals == [1.5, 2.5]

    def test_idle_link_restarts_from_now(self):
        sim = Simulator()
        link = Link(sim, bandwidth_gbps=10.0, propagation_us=0.0)
        link.send(1250, lambda: None)
        sim.run()
        assert sim.now == 1.0
        arrivals = []
        sim.schedule(9.0, lambda: link.send(1250, lambda: arrivals.append(sim.now)))
        sim.run()
        assert arrivals == [11.0]

    def test_bandwidth_scales(self):
        sim = Simulator()
        fast = Link(sim, bandwidth_gbps=100.0)
        slow = Link(sim, bandwidth_gbps=10.0)
        assert fast.serialization_us(10000) == pytest.approx(
            slow.serialization_us(10000) / 10.0
        )

    def test_invalid_params(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Link(sim, bandwidth_gbps=0.0)
        with pytest.raises(ValueError):
            Link(sim, bandwidth_gbps=1.0, propagation_us=-1.0)

    def test_counters(self):
        sim = Simulator()
        link = Link(sim, bandwidth_gbps=10.0)
        link.send(100, lambda: None)
        link.send(200, lambda: None)
        assert link.frames_sent == 2
        assert link.bytes_sent == 300


def make_skb(flow=None, size=100):
    flow = flow or FlowKey.make(1, 2, flow_id=1)
    return Skb(flow, size=size)


class TestNic:
    def test_irq_raised_once_while_napi_scheduled(self):
        nic = Nic(num_queues=1, ring_capacity=8)
        irqs = []
        nic.irq_handler = irqs.append
        flow = FlowKey.make(1, 2, flow_id=1)
        for _ in range(5):
            nic.receive(make_skb(flow))
        # Only the first packet raises the interrupt; NAPI masks the rest.
        assert len(irqs) == 1
        assert len(nic.queues[0].ring) == 5

    def test_irq_re_enabled_after_napi_complete(self):
        nic = Nic(num_queues=1)
        irqs = []
        nic.irq_handler = irqs.append
        flow = FlowKey.make(1, 2, flow_id=1)
        nic.receive(make_skb(flow))
        queue = nic.queues[0]
        queue.ring.clear()
        queue.napi_scheduled = False  # driver re-enables the IRQ
        nic.receive(make_skb(flow))
        assert len(irqs) == 2

    def test_ring_overflow_drops(self):
        nic = Nic(num_queues=1, ring_capacity=2)
        nic.irq_handler = lambda queue: None
        flow = FlowKey.make(1, 2, flow_id=1)
        results = [nic.receive(make_skb(flow)) for _ in range(4)]
        assert results == [True, True, False, False]
        assert nic.total_drops == 2

    def test_rss_spreads_flows_by_hash(self):
        nic = Nic(num_queues=4)
        queues = {
            nic.select_queue(FlowKey.make(1, 2, sport=sport, flow_id=sport).hash).index
            for sport in range(64)
        }
        assert len(queues) > 1

    def test_rss_same_flow_same_queue(self):
        nic = Nic(num_queues=4)
        flow = FlowKey.make(9, 9, flow_id=1)
        first = nic.select_queue(flow.hash)
        assert all(nic.select_queue(flow.hash) is first for _ in range(8))

    def test_missing_irq_handler_raises(self):
        nic = Nic()
        with pytest.raises(RuntimeError):
            nic.receive(make_skb())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            Nic(num_queues=0)
        with pytest.raises(ValueError):
            Nic(num_queues=2, irq_cpus=[0])


class TestLocality:
    def test_same_core_is_free(self):
        model = LocalityModel()
        assert model.multiplier(3, 3) == 1.0
        assert model.multiplier(None, 3) == 1.0

    def test_cross_core_penalty(self):
        model = LocalityModel(cross_core=1.1, cores_per_socket=10)
        assert model.multiplier(0, 1) == pytest.approx(1.1)

    def test_cross_socket_penalty(self):
        model = LocalityModel(
            cross_core=1.1, cross_socket=1.3, cores_per_socket=10
        )
        assert model.multiplier(0, 10) == pytest.approx(1.3)
        assert model.multiplier(0, 9) == pytest.approx(1.1)

    def test_uniform_model(self):
        model = LocalityModel.uniform()
        assert model.multiplier(0, 5) == 1.0

    def test_invalid_multiplier(self):
        with pytest.raises(ValueError):
            LocalityModel(same_core=0.0)
