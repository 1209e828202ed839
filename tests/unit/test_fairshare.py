"""Unit tests for tenant-fair CPU allocation (Section 6.4 future work)."""

import pytest

from repro.core.config import FalconConfig
from repro.core.falcon import FalconSteering
from repro.core.fairshare import FairShareBalancer, partition_cpus, use_fair_share
from repro.hw.topology import Machine
from repro.kernel.skb import FlowKey
from repro.sim.engine import Simulator
from repro.sim.errors import ConfigurationError


class TestPartition:
    def test_proportional_split(self):
        assert partition_cpus([3, 4, 5, 6], {"a": 3, "b": 1}) == {
            "a": [3, 4, 5],
            "b": [6],
        }

    def test_equal_weights(self):
        parts = partition_cpus([1, 2, 3, 4], {"a": 1, "b": 1})
        assert len(parts["a"]) == 2 and len(parts["b"]) == 2

    def test_every_tenant_gets_a_cpu(self):
        parts = partition_cpus([1, 2, 3], {"big": 100, "small": 1, "tiny": 1})
        assert all(len(slice_) >= 1 for slice_ in parts.values())
        assert sum(len(slice_) for slice_ in parts.values()) == 3

    def test_partitions_cover_and_disjoint(self):
        cpus = list(range(10))
        parts = partition_cpus(cpus, {"a": 5, "b": 3, "c": 2})
        flat = [cpu for slice_ in parts.values() for cpu in slice_]
        assert sorted(flat) == cpus

    def test_deterministic(self):
        first = partition_cpus([1, 2, 3, 4, 5], {"x": 2, "y": 3})
        second = partition_cpus([1, 2, 3, 4, 5], {"x": 2, "y": 3})
        assert first == second

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            partition_cpus([1], {"a": 1, "b": 1})
        with pytest.raises(ConfigurationError):
            partition_cpus([1, 2], {})
        with pytest.raises(ConfigurationError):
            partition_cpus([1, 2], {"a": 0, "b": 1})


class TestBalancer:
    def make(self):
        machine = Machine(Simulator(), num_cpus=8)
        balancer = FairShareBalancer()
        balancer.set_tenants({"gold": 3, "bronze": 1}, [3, 4, 5, 6])
        return machine, balancer

    def test_tenant_confined_to_partition(self):
        machine, balancer = self.make()
        gold_part = set(balancer.partition_of("gold"))
        bronze_part = set(balancer.partition_of("bronze"))
        assert len(gold_part) == 3 and len(bronze_part) == 1
        gold_flow = FlowKey.make(1, 2, sport=1, flow_id=1)
        bronze_flow = FlowKey.make(1, 2, sport=2, flow_id=2)
        balancer.assign_flow(gold_flow, "gold")
        balancer.assign_flow(bronze_flow, "bronze")
        for ifindex in range(2, 40):
            assert balancer.select(
                machine, [3, 4, 5, 6], gold_flow.hash, ifindex, 1
            ) in gold_part
            assert balancer.select(
                machine, [3, 4, 5, 6], bronze_flow.hash, ifindex, 1
            ) in bronze_part

    def test_second_choice_stays_in_partition(self):
        machine, balancer = self.make()
        gold_part = balancer.partition_of("gold")
        flow = FlowKey.make(1, 2, sport=7, flow_id=1)
        balancer.assign_flow(flow, "gold")
        for cpu in gold_part:
            machine.cpus[cpu].load = 0.99
        pick = balancer.select(machine, [3, 4, 5, 6], flow.hash, 5, 1)
        assert pick in gold_part  # never steals bronze's CPU
        assert balancer.second_choices >= 1

    def test_unassigned_flow_uses_full_set(self):
        machine, balancer = self.make()
        flow = FlowKey.make(9, 9, flow_id=1)
        pick = balancer.select(machine, [3, 4, 5, 6], flow.hash, 3, 1)
        assert pick in (3, 4, 5, 6)
        assert balancer.unassigned_selections == 1

    def test_assign_unknown_tenant_rejected(self):
        _machine, balancer = self.make()
        with pytest.raises(ConfigurationError):
            balancer.assign_flow(FlowKey.make(1, 2, flow_id=1), "silver")


class TestUseFairShare:
    def test_swaps_balancer_on_steering(self):
        machine = Machine(Simulator(), num_cpus=8)
        steering = FalconSteering(machine, FalconConfig(cpus=[3, 4, 5, 6]))
        balancer = use_fair_share(steering, {"a": 1, "b": 1})
        assert steering.balancer is balancer
        assert sorted(balancer.partition_of("a") + balancer.partition_of("b")) == [
            3, 4, 5, 6,
        ]


class TestFairnessEndToEnd:
    @staticmethod
    def _run(fair: bool):
        from repro.workloads.sockperf import Testbed

        bed = Testbed(mode="overlay", falcon=FalconConfig(cpus=[3, 4, 5, 6]))
        balancer = None
        if fair:
            balancer = use_fair_share(bed.stack.falcon, {"victim": 1, "noisy": 1})
        victim_lat = []
        victim = bed.add_udp_flow(
            512,
            clients=1,
            rate_pps=50_000,
            on_message=lambda s, skb, lat: victim_lat.append(lat),
        )
        noisy = bed.add_udp_flow(16, clients=3)  # saturating flood
        if balancer is not None:
            balancer.assign_flow(victim, "victim")
            balancer.assign_flow(noisy, "noisy")
        bed.run(warmup_ms=4, measure_ms=10)
        return balancer, victim_lat

    def test_noisy_neighbour_contained(self):
        """The flooding tenant must not consume the victim tenant's CPUs.

        The partitions only govern Falcon-managed stages — the driver and
        RPS cores stay shared — so the fairness claim is relative: the
        victim's latency under fair-share must beat the free-for-all
        two-choice baseline, where the flood's stages can land on (and
        saturate) the victim's cores.
        """
        balancer, fair_lat = self._run(fair=True)
        _none, base_lat = self._run(fair=False)
        assert fair_lat and base_lat
        victim_cpus = set(balancer.partition_of("victim"))
        noisy_cpus = set(balancer.partition_of("noisy"))
        assert victim_cpus.isdisjoint(noisy_cpus)
        fair_avg = sum(fair_lat) / len(fair_lat)
        base_avg = sum(base_lat) / len(base_lat)
        assert fair_avg < base_avg
