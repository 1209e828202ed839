"""Integration tests for the application benchmarks (memcached, web)."""

import pytest

from repro.core.config import FalconConfig
from repro.hw.topology import Machine
from repro.sim.engine import Simulator
from repro.workloads.apps import ResponseChannel, WorkerPool
from repro.workloads.memcached import MemcachedScenario
from repro.workloads.webserving import OPERATIONS, WebServingScenario


class TestWorkerPool:
    def make_pool(self, max_workers=2, cpus=None):
        sim = Simulator()
        machine = Machine(sim, num_cpus=4)
        return sim, machine, WorkerPool(machine, cpus or [0, 1], max_workers)

    def test_all_jobs_served(self):
        sim, machine, pool = self.make_pool()
        done = []
        for index in range(10):
            pool.submit(5.0, lambda i=index: done.append(i))
        sim.run()
        assert sorted(done) == list(range(10))
        assert pool.served == 10
        assert pool.queued == 0

    def test_concurrency_bounded(self):
        sim, machine, pool = self.make_pool(max_workers=2)
        for _ in range(10):
            pool.submit(10.0, lambda: None)
        assert pool.active == 2
        assert pool.queued == 8
        assert pool.peak_queue == 8
        sim.run()
        assert pool.active == 0

    def test_parallel_speedup(self):
        sim, machine, pool = self.make_pool(max_workers=2, cpus=[0, 1])
        for _ in range(4):
            pool.submit(10.0, lambda: None)
        sim.run()
        assert sim.now == pytest.approx(20.0)  # 4 x 10us over 2 workers

    def test_validation(self):
        sim = Simulator()
        machine = Machine(sim, num_cpus=2)
        with pytest.raises(ValueError):
            WorkerPool(machine, [0], max_workers=0)
        with pytest.raises(ValueError):
            WorkerPool(machine, [], max_workers=1)


class TestMemcached:
    def test_requests_flow_end_to_end(self):
        result = MemcachedScenario(clients=2).run(measure_ms=6, warmup_ms=4)
        assert result.requests_completed > 0
        assert result.latency["avg"] > 0
        assert result.throughput_rps == pytest.approx(
            result.requests_completed / 6e-3, rel=1e-6
        )

    def test_latency_grows_with_clients(self):
        small = MemcachedScenario(clients=1).run(measure_ms=8, warmup_ms=4)
        large = MemcachedScenario(clients=10).run(measure_ms=8, warmup_ms=4)
        assert large.throughput_rps > small.throughput_rps
        assert large.latency["p99"] > small.latency["p99"]

    def test_falcon_reduces_latency_under_load(self):
        con = MemcachedScenario(clients=10).run(measure_ms=8, warmup_ms=6)
        falcon = MemcachedScenario(clients=10, falcon=FalconConfig()).run(
            measure_ms=8, warmup_ms=6
        )
        assert falcon.latency["avg"] < con.latency["avg"]

    def test_acks_ride_the_stack(self):
        scenario = MemcachedScenario(clients=2)
        scenario.run(measure_ms=6, warmup_ms=3)
        assert scenario.channel.acks_injected > 0
        assert scenario.bed.stack.control_packets > 0

    def test_mode_label(self):
        result = MemcachedScenario(clients=1, falcon=FalconConfig()).run(
            measure_ms=4, warmup_ms=2
        )
        assert result.mode == "overlay+falcon"


class TestWebServing:
    def test_pages_complete(self):
        result = WebServingScenario(users=40).run(measure_ms=10, warmup_ms=6)
        assert result.total_ops > 0
        # Stats exist for the op mix actually drawn.
        drawn = [name for name, s in result.per_op.items() if s.completed]
        assert drawn

    def test_ops_report_response_and_delay(self):
        result = WebServingScenario(users=40).run(measure_ms=10, warmup_ms=6)
        for op in OPERATIONS:
            stats = result.per_op[op.name]
            if stats.completed:
                assert result.avg_response_ms(op.name) > 0
                assert result.avg_delay_ms(op.name) >= 0
                # Delay is response minus target, floored at zero.
                assert result.avg_delay_ms(op.name) <= result.avg_response_ms(
                    op.name
                )

    def test_asset_retransmission_state(self):
        scenario = WebServingScenario(users=40)
        result = scenario.run(measure_ms=10, warmup_ms=6)
        # Assets were fetched (far more packets than dynamic requests).
        assert scenario.channel.responses_sent > result.total_ops

    def test_falcon_increases_total_ops(self):
        con = WebServingScenario(users=150).run(measure_ms=12, warmup_ms=8)
        falcon = WebServingScenario(users=150, falcon=FalconConfig()).run(
            measure_ms=12, warmup_ms=8
        )
        assert falcon.total_ops > con.total_ops
