"""The scenario catalogue's validation suites as a tier-1 gate.

Each test asserts what ``repro validate`` asserts for one catalogue case:
a golden entry's trace matches its file in ``tests/goldens`` exactly, and
an invariant entry conserves every packet at strict quiescence.
"""

import dataclasses

import pytest

from repro import scenarios
from repro.cli import main
from repro.validate import (
    check_goldens,
    corrupt_interrupt_counter,
    default_golden_dir,
    diff_trace_docs,
    load_golden,
    run_golden_scenario,
    run_invariant_scenario,
)


@pytest.mark.parametrize("name", scenarios.GOLDEN)
def test_golden_trace_matches(name):
    golden = load_golden(default_golden_dir() / f"{name}.json")
    assert diff_trace_docs(golden, run_golden_scenario(name)) == []


@pytest.mark.parametrize("name", scenarios.INVARIANTS)
def test_invariants_hold_to_quiescence(name):
    outcome = run_invariant_scenario(name)
    assert outcome.ok, outcome.render()


def test_each_config_has_one_name():
    configs = [
        dataclasses.replace(entry, name="") for entry in scenarios.SCENARIOS.values()
    ]
    assert len(set(configs)) == len(configs)


def test_suites_name_catalogue_entries():
    named = set(scenarios.GOLDEN) | set(scenarios.INVARIANTS)
    assert named <= set(scenarios.SCENARIOS)


def test_missing_golden_is_reported(tmp_path, monkeypatch):
    monkeypatch.setattr(scenarios, "GOLDEN", ("udp_fixed_vanilla",))
    results = check_goldens(golden_dir=tmp_path)
    [message] = results["udp_fixed_vanilla"]
    assert message.startswith(f"golden file {tmp_path / 'udp_fixed_vanilla.json'}")
    assert "missing" in message


def test_invariant_violation_fails_validate(monkeypatch, capsys):
    """A counter corrupted mid-run turns `repro validate` red."""
    name = scenarios.INVARIANTS[0]
    entry = scenarios.SCENARIOS[name]
    real_build = scenarios.build

    def corrupted_build(*args, **kwargs):
        bed = real_build(*args, **kwargs)
        mid_run_us = (entry.warmup_ms + entry.measure_ms / 2) * 1000.0
        bed.sim.schedule(mid_run_us, corrupt_interrupt_counter, bed.host.machine)
        return bed

    monkeypatch.setattr(scenarios, "INVARIANTS", (name,))
    monkeypatch.setattr(scenarios, "build", corrupted_build)
    assert main(["validate", "--suite", "invariants"]) == 1
    out = capsys.readouterr().out
    assert f"[invariants] {name}: FAIL" in out
    assert "counter-monotonicity" in out
