"""Unit tests for Falcon configuration, balancing policies and steering."""

import pytest

from repro.core.balancing import (
    LeastLoadedBalancer,
    StaticHashBalancer,
    TwoChoiceBalancer,
    make_balancer,
)
from repro.core.config import FalconConfig
from repro.core.falcon import FalconSteering, VanillaSteering
from repro.core.pipelining import expected_cpu_plan, pipeline_width, stacking_plan
from repro.core.splitting import GRO_SPLIT, SplitSpec, validate_split
from repro.hw.topology import Machine
from repro.kernel.hashing import hash_32
from repro.kernel.skb import FlowKey, Skb
from repro.sim.engine import Simulator
from repro.sim.errors import ConfigurationError


def make_machine(num_cpus=8):
    return Machine(Simulator(), num_cpus=num_cpus)


def make_skb(sport=1000):
    return Skb(FlowKey.make(1, 2, sport=sport, flow_id=sport), size=100)


class TestConfig:
    def test_defaults_valid(self):
        FalconConfig().validate(num_cpus=20)

    def test_empty_cpus_rejected(self):
        with pytest.raises(ConfigurationError):
            FalconConfig(cpus=[]).validate(num_cpus=8)

    def test_cpu_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            FalconConfig(cpus=[9]).validate(num_cpus=8)

    def test_bad_threshold_rejected(self):
        with pytest.raises(ConfigurationError):
            FalconConfig(load_threshold=0.0).validate(num_cpus=8)

    def test_bad_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            FalconConfig(policy="round_robin").validate(num_cpus=8)

    def test_disabled_preset(self):
        config = FalconConfig.disabled()
        assert not config.enabled


class TestBalancers:
    def test_static_is_deterministic(self):
        machine = make_machine()
        balancer = StaticHashBalancer()
        cpus = [3, 4, 5, 6]
        picks = {balancer.select(machine, cpus, 12345, 3) for _ in range(10)}
        assert len(picks) == 1
        assert picks.pop() in cpus

    def test_static_matches_first_choice(self):
        from repro.core.balancing import first_choice_cpu

        machine = make_machine()
        cpus = [3, 4, 5, 6]
        skb_hash, ifindex = 99999, 5
        expected = first_choice_cpu(cpus, skb_hash, ifindex)
        assert StaticHashBalancer().select(machine, cpus, skb_hash, ifindex) == expected

    def test_second_choice_usually_differs_from_first(self):
        """The regression the high-bit folding fixes: with a power-of-two
        CPU set, the double hash must not map slots back onto themselves."""
        from repro.core.balancing import first_choice_cpu, second_choice_cpu

        cpus = [3, 4, 5, 6]
        differing = sum(
            1
            for skb_hash in range(512)
            if first_choice_cpu(cpus, skb_hash * 2654435761 % 2**32, 5)
            != second_choice_cpu(cpus, skb_hash * 2654435761 % 2**32, 5)
        )
        assert differing > 512 * 0.55  # ~75% expected for 4 CPUs

    def test_two_choice_stays_when_first_idle(self):
        machine = make_machine()
        balancer = TwoChoiceBalancer(load_threshold=0.85)
        cpus = [3, 4, 5, 6]
        first = StaticHashBalancer().select(machine, cpus, 777, 3)
        assert balancer.select(machine, cpus, 777, 3) == first
        assert balancer.second_choices == 0

    def test_two_choice_rehashes_away_from_busy_core(self):
        from repro.core.balancing import first_choice_cpu, second_choice_cpu

        machine = make_machine()
        cpus = [3, 4, 5, 6]
        balancer = TwoChoiceBalancer(load_threshold=0.85)
        # Find a (hash, ifindex) whose first and second choices differ.
        for skb_hash in range(64):
            first = first_choice_cpu(cpus, skb_hash, 3)
            second = second_choice_cpu(cpus, skb_hash, 3)
            if first != second:
                break
        machine.cpus[first].load = 0.99
        assert balancer.select(machine, cpus, skb_hash, 3) == second
        assert balancer.second_choices == 1

    def test_two_choice_commits_to_second_even_if_busy(self):
        machine = make_machine()
        cpus = [3, 4, 5, 6]
        balancer = TwoChoiceBalancer(load_threshold=0.85)
        for cpu in cpus:
            machine.cpus[cpu].load = 0.99
        pick = balancer.select(machine, cpus, 42, 3)
        assert pick in cpus  # no third choice, no exception

    def test_least_loaded_chases_minimum(self):
        machine = make_machine()
        cpus = [3, 4, 5, 6]
        machine.cpus[5].load = 0.0
        for cpu in (3, 4, 6):
            machine.cpus[cpu].load = 0.9
        assert LeastLoadedBalancer().select(machine, cpus, 1, 2) == 5

    def test_factory(self):
        assert isinstance(
            make_balancer(FalconConfig(policy="two_choice")), TwoChoiceBalancer
        )
        assert isinstance(
            make_balancer(FalconConfig(policy="static")), StaticHashBalancer
        )
        assert isinstance(
            make_balancer(FalconConfig(policy="least_loaded")), LeastLoadedBalancer
        )


class TestFalconSteering:
    def test_inactive_when_disabled(self):
        machine = make_machine()
        steering = FalconSteering(machine, FalconConfig(enabled=False, cpus=[3]))
        assert not steering.active()
        skb = make_skb()
        assert steering.select_cpu(skb, 3, current_cpu=1) == 1
        assert steering.fallbacks == 1

    def test_load_gate_disables_falcon(self):
        machine = make_machine()
        config = FalconConfig(cpus=[3, 4], load_threshold=0.85)
        steering = FalconSteering(machine, config)
        assert steering.active()
        machine.cpus[3].load = 1.0
        machine.cpus[4].load = 0.9
        assert not steering.active()  # L_avg = 0.95 >= 0.85
        assert steering.select_cpu(make_skb(), 3, current_cpu=1) == 1

    def test_always_on_ignores_load(self):
        machine = make_machine()
        config = FalconConfig(cpus=[3, 4], threshold_enabled=False)
        steering = FalconSteering(machine, config)
        machine.cpus[3].load = 1.0
        machine.cpus[4].load = 1.0
        assert steering.active()

    def test_steers_to_falcon_cpu(self):
        machine = make_machine()
        steering = FalconSteering(machine, FalconConfig(cpus=[3, 4, 5, 6]))
        skb = make_skb()
        target = steering.select_cpu(skb, ifindex=3, current_cpu=1)
        assert target in (3, 4, 5, 6)
        assert steering.steered == 1

    def test_same_flow_same_device_is_sticky(self):
        machine = make_machine()
        steering = FalconSteering(machine, FalconConfig(cpus=[3, 4, 5, 6]))
        skb = make_skb()
        picks = {steering.select_cpu(skb, 3, 1) for _ in range(20)}
        assert len(picks) == 1

    def test_different_devices_usually_differ(self):
        machine = make_machine(num_cpus=16)
        steering = FalconSteering(machine, FalconConfig(cpus=list(range(4, 16))))
        differing = 0
        for sport in range(100):
            skb = make_skb(sport=sport)
            if steering.select_cpu(skb, 3, 1) != steering.select_cpu(skb, 5, 1):
                differing += 1
        assert differing > 70  # 1 - 1/12 expected

    def test_selector_binds_ifindex(self):
        machine = make_machine()
        steering = FalconSteering(machine, FalconConfig(cpus=[3, 4, 5, 6]))
        skb = make_skb()
        selector = steering.selector(5)
        assert selector(skb, 1) == steering.select_cpu(skb, 5, 1)

    def test_split_selector_same_core_pins(self):
        machine = make_machine()
        steering = FalconSteering(machine, FalconConfig(cpus=[3, 4]))
        selector = steering.split_selector(1002, split_same_core=True)
        assert selector(make_skb(), 7) == 7

    def test_vanilla_steering_never_moves(self):
        selector = VanillaSteering().selector(5)
        assert selector(make_skb(), 9) == 9


class TestSplitting:
    def test_gro_split_is_legal(self):
        validate_split(GRO_SPLIT)

    def test_unknown_cut_rejected(self):
        with pytest.raises(ConfigurationError):
            validate_split(SplitSpec("container", "l4_rcv"))


class TestPipelining:
    def test_expected_plan_covers_devices(self):
        plan = expected_cpu_plan(0xABCD, [3, 5], [3, 4, 5, 6])
        assert sorted(plan) == [3, 5]
        assert all(cpu in (3, 4, 5, 6) for cpu in plan.values())

    def test_pipeline_width_bounds(self):
        width = pipeline_width(0xABCD, [3, 5], [3, 4, 5, 6])
        assert 1 <= width <= 2

    def test_stacking_plan_partitions_in_order(self):
        groups = stacking_plan(FalconConfig(), [3, 4, 5], 2)
        flattened = [i for group in groups for i in group]
        assert flattened == [3, 4, 5]
        assert len(groups) == 2

    def test_stacking_plan_validation(self):
        with pytest.raises(ValueError):
            stacking_plan(FalconConfig(), [3], 0)
