"""Property tests for the per-batch stage loop and Falcon's cached steering.

``Stage.run_batch`` runs a whole softirq batch in one loop and reuses the
locality multiplier across packets; ``TwoChoiceBalancer`` caches each
hash's two choices; the load gate reads cores looked up at build. Each
must decide exactly what the plain per-packet computation decides.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.balancing import (
    TwoChoiceBalancer,
    first_choice_cpu,
    second_choice_cpu,
)
from repro.core.config import FalconConfig
from repro.core.falcon import FalconSteering
from repro.hw.cache import LocalityModel
from repro.hw.topology import Machine
from repro.kernel.costs import FuncCost
from repro.kernel.skb import FlowKey, Skb
from repro.kernel.stages import Stage, Step
from repro.sim.engine import Simulator

FLOW = FlowKey.make(1, 2, flow_id=1)
LOCALITY = LocalityModel(cross_core=1.08, cross_socket=1.16, cores_per_socket=2)
CPU = 1


def consume_every_third(skb, cpu):
    return None if skb.msg_id % 3 == 0 else skb


def replace_odd(skb, cpu):
    if skb.msg_id % 2:
        return Skb(skb.flow, size=skb.size + 50, msg_id=skb.msg_id)
    return skb


def make_stage():
    return Stage(
        "s",
        7,
        [
            Step.simple("alloc", FuncCost(0.3, 0.001)),
            Step("sized", lambda skb: 0.0 if skb.size < 64 else skb.size * 0.002),
            Step.simple("merge", FuncCost(0.2), effect=replace_odd),
            Step.simple("free", FuncCost(0.0)),
            Step.simple("gate", FuncCost(0.1, 0.0005), effect=consume_every_third),
            Step.simple("tail", FuncCost(0.4, 0.003)),
        ],
        exit=None,
    )


def make_skbs(specs):
    skbs = []
    for msg_id, (size, last_cpu) in enumerate(specs):
        skb = Skb(FLOW, size=size, msg_id=msg_id)
        skb.last_cpu = last_cpu
        skbs.append(skb)
    return skbs


def reference_batch(stage, skbs, charges, outputs):
    """The per-packet loop: look everything up again for every skb."""
    for skb in skbs:
        skb.dev_ifindex = stage.ifindex
        multiplier = LOCALITY.multiplier(skb.last_cpu, CPU)
        current = skb
        for step in stage.steps:
            if step.cost is None:
                cost = (step.fixed + step.per_byte * current.size) * multiplier
            else:
                cost = step.cost(current) * multiplier
            if cost > 0.0:
                charges.append((step.name, cost))
            if step.effect is not None:
                current = step.effect(current, CPU)
                if current is None:
                    break
        if current is not None:
            outputs.append(current)


def exits(skbs, outputs):
    """Outputs as (input position or None for a replacement, msg_id, size)."""
    position = {id(skb): index for index, skb in enumerate(skbs)}
    return [(position.get(id(out)), out.msg_id, out.size) for out in outputs]


batches = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=9000),
        st.sampled_from([None, 0, 1, 2, 3]),
    ),
    min_size=1,
    max_size=24,
)


@given(batches)
def test_run_batch_matches_per_packet_loop(specs):
    stage = make_stage()
    batch_skbs, reference_skbs = make_skbs(specs), make_skbs(specs)
    names, costs, outputs = [], [], []
    stage.run_batch(batch_skbs, CPU, LOCALITY, names, costs, outputs, None, 0.0)
    expected_charges, expected_outputs = [], []
    reference_batch(stage, reference_skbs, expected_charges, expected_outputs)
    assert list(zip(names, costs)) == expected_charges
    assert len(names) == len(costs)
    assert exits(batch_skbs, outputs) == exits(reference_skbs, expected_outputs)
    assert [skb.dev_ifindex for skb in batch_skbs] == [7] * len(specs)


cpu_sets = st.lists(
    st.integers(min_value=0, max_value=7), min_size=1, max_size=6, unique=True
)
selections = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),  # which CPU set
        st.integers(min_value=1, max_value=2**32 - 1),  # skb hash
        st.integers(min_value=1, max_value=4000),  # ifindex
        st.booleans(),  # is the first choice loaded?
    ),
    min_size=1,
    max_size=60,
)


@given(st.lists(cpu_sets, min_size=3, max_size=3), selections)
def test_two_choice_cache_matches_uncached_choices(sets, calls):
    """Cached choices equal ``first_choice_cpu``/``second_choice_cpu`` for
    every call, also when calls alternate between CPU sets and one set
    is changed in place between calls."""
    machine = Machine(Simulator(), num_cpus=8)
    balancer = TwoChoiceBalancer(load_threshold=0.85)
    for which, skb_hash, ifindex, loaded in calls:
        cpus = sets[which]
        first = first_choice_cpu(cpus, skb_hash, ifindex)
        second = second_choice_cpu(cpus, skb_hash, ifindex)
        for cpu in machine.cpus:
            cpu.load = 0.0
        machine.cpus[first].load = 0.99 if loaded else 0.0
        expected = second if loaded else first
        assert balancer.select(machine, cpus, skb_hash, ifindex, 1) == expected
        assert balancer._choices[skb_hash + ifindex] == (first, second)
        # Rotate the set in place: the next call on it sees a new set.
        cpus.append(cpus.pop(0))


@given(
    st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=8),
    # Decimal loads make means that land on, or one ulp off, a threshold.
    st.lists(
        st.sampled_from([0.0, 0.1, 0.3, 0.7, 0.8, 0.85, 0.9, 0.95, 1.0]),
        min_size=8,
        max_size=8,
    ),
    st.sampled_from([0.5, 0.85, 0.9, 1.0]),
)
def test_load_gate_is_the_mean_of_the_falcon_set(cpus, loads, threshold):
    """The gate compares ``sum(loads) / len(loads)`` over FALCON_CPUS (with
    repeats, in config order) with the threshold, bit for bit."""
    machine = Machine(Simulator(), num_cpus=8)
    steering = FalconSteering(
        machine, FalconConfig(cpus=list(cpus), load_threshold=threshold)
    )
    for cpu, load in zip(machine.cpus, loads):
        cpu.load = load
    values = [loads[index] for index in cpus]
    assert steering.active() == (sum(values) / len(values) < threshold)
