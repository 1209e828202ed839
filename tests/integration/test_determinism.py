"""Determinism: a run is a pure function of (code, seed).

Reproducibility underpins both the figure harness (results/ must be
regenerable) and the paper's "consistent across runs" claims; any use of
unseeded randomness or dict-ordering luck breaks it.
"""

import dataclasses

import pytest

from repro.core.config import FalconConfig
from repro.workloads.sockperf import Experiment

FAST = dict(duration_ms=6.0, warmup_ms=3.0)


def run_once(seed=0):
    exp = Experiment(mode="overlay", falcon=FalconConfig(), seed=seed)
    return exp.run_udp_stress(16, **FAST)


def fingerprint(result):
    return (
        result.messages_delivered,
        round(result.message_rate_pps, 6),
        round(result.latency["avg"], 9),
        round(result.latency["p99.9"], 9),
        tuple(round(u, 9) for u in result.cpu_util),
        tuple(sorted(result.interrupts.items())),
        result.softirq_raises,
        tuple(sorted(result.drops.items())),
    )


def test_same_seed_same_everything():
    assert fingerprint(run_once(0)) == fingerprint(run_once(0))


def test_different_seed_different_flows():
    first = run_once(0)
    second = run_once(7)
    # Same physics, different flow hashes: rates are close but the exact
    # event interleavings (and so latencies) differ.
    assert first.message_rate_pps == pytest.approx(
        second.message_rate_pps, rel=0.25
    )


def test_tcp_run_deterministic():
    def run():
        exp = Experiment(mode="overlay", falcon=FalconConfig(split_gro=True))
        return exp.run_tcp_stream(4096, window_msgs=16, **FAST)

    assert fingerprint(run()) == fingerprint(run())


def _poisson_run(use_falcon, flows):
    """A traced Poisson-paced run: (canonical trace, full RunResult)."""
    from repro.metrics.tracing import PacketTracer
    from repro.validate import serialize_traces, trace_doc_to_json
    from repro.workloads.sockperf import Testbed

    bed = Testbed(mode="overlay", falcon=FalconConfig() if use_falcon else None)
    tracer = PacketTracer(sample_every=7, max_messages=48)
    bed.stack.tracer = tracer
    for _ in range(flows):
        bed.add_udp_flow(512, clients=2, rate_pps=80_000.0, poisson=True)
    result = bed.run(warmup_ms=2.0, measure_ms=4.0)
    return trace_doc_to_json(serialize_traces(tracer)), dataclasses.asdict(result)


def test_run_order_does_not_matter():
    """Scenario A, then a different scenario B, then A again in one
    process: A's output depends only on its config and seed, even with
    Poisson arrivals, whose RNG streams are named after flow ids."""
    first = _poisson_run(use_falcon=True, flows=1)
    _poisson_run(use_falcon=False, flows=3)
    second = _poisson_run(use_falcon=True, flows=1)
    assert first[0] == second[0], "canonical traces depend on run order"
    assert first[1] == second[1], "RunResult depends on run order"


def test_memcached_deterministic():
    from repro.workloads.memcached import run_memcached

    first = run_memcached(2, duration_ms=5, warmup_ms=3)
    second = run_memcached(2, duration_ms=5, warmup_ms=3)
    assert first.requests_completed == second.requests_completed
    assert first.latency["p99"] == second.latency["p99"]


# ----------------------------------------------------------------------
# Seed-sweep matrix: bit-identical counters AND golden traces
# ----------------------------------------------------------------------
# The spot checks above catch gross nondeterminism; the matrix pins down
# the full interrupt-counter state and the canonical packet trace for
# every (seed, steering) cell, so a single wandering event anywhere in
# the pipeline fails the exact cell that saw it.

MATRIX_SEEDS = [0, 1, 2, 3, 4]


def _traced_run(seed, use_falcon):
    from repro.metrics.tracing import PacketTracer
    from repro.validate import serialize_traces, trace_doc_to_json
    from repro.workloads.sockperf import Testbed

    bed = Testbed(
        mode="overlay",
        falcon=FalconConfig() if use_falcon else None,
        seed=seed,
    )
    tracer = PacketTracer(sample_every=7, max_messages=48)
    bed.stack.tracer = tracer
    bed.add_udp_flow(512, rate_pps=50_000.0)
    bed.run(warmup_ms=2.0, measure_ms=5.0)
    return (
        tuple(sorted(bed.host.machine.interrupts.snapshot().items())),
        tuple(sorted(bed.stack.drop_counts().items())),
        trace_doc_to_json(serialize_traces(tracer)),
    )


@pytest.mark.slow
@pytest.mark.parametrize("use_falcon", [False, True], ids=["vanilla", "falcon"])
@pytest.mark.parametrize("seed", MATRIX_SEEDS)
def test_seed_matrix_counters_and_traces_bit_identical(seed, use_falcon):
    first = _traced_run(seed, use_falcon)
    second = _traced_run(seed, use_falcon)
    assert first[0] == second[0], "interrupt counters diverged between runs"
    assert first[1] == second[1], "drop counters diverged between runs"
    assert first[2] == second[2], "canonical packet traces diverged between runs"


@pytest.mark.slow
def test_seed_matrix_seeds_actually_differ():
    """The matrix is vacuous if every seed produces the same run."""
    traces = {_traced_run(seed, True)[2] for seed in MATRIX_SEEDS}
    assert len(traces) > 1
