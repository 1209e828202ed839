"""Tests of the benchmark itself: ``pytest simbench/test_simbench.py``.

Outside the tier-1 ``testpaths``; the smoke test runs real reps (~20 s).
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import rep  # noqa: E402
import simbench  # noqa: E402

SPEC = simbench.load_spec()
PKG = os.path.join(os.sep, "x", "src", "repro")


def _func(relative: str, line: int, name: str) -> tuple:
    return (os.path.join(PKG, *relative.split("/")), line, name)


def test_aggregation_credits_builtins_to_the_calling_layer():
    run = _func("sim/engine.py", 219, "run")
    lt = _func("sim/events.py", 41, "__lt__")
    rx = _func("kernel/stack.py", 10, "rx")
    cli = _func("cli.py", 1, "main")
    heappush = ("~", 0, "<built-in method _heapq.heappush>")
    randint = ("/usr/lib/python3.11/random.py", 300, "randint")
    getrandbits = ("~", 0, "<method 'getrandbits' of '_random.Random' objects>")
    stats = {
        # func: (cc, nc, tt, ct, {caller: (cc, nc, tt, ct)})
        run: (1, 1, 1.0, 9.0, {}),
        lt: (7, 7, 0.5, 0.5, {heappush: (7, 7, 0.5, 0.5)}),
        rx: (3, 3, 2.0, 4.0, {run: (3, 3, 2.0, 4.0)}),
        cli: (1, 1, 0.25, 0.25, {}),
        # heappush is called from both layers: 0.3 s of its self time
        # was spent on calls from sim, 0.1 s on calls from kernel.
        heappush: (4, 4, 0.4, 0.9, {run: (3, 3, 0.3, 0.8), rx: (1, 1, 0.1, 0.1)}),
        # A stdlib function, and a builtin it calls, both under kernel.
        randint: (2, 2, 0.2, 0.3, {rx: (2, 2, 0.2, 0.3)}),
        getrandbits: (2, 2, 0.1, 0.1, {randint: (2, 2, 0.1, 0.1)}),
    }
    result = rep.aggregate_profile(stats, PKG)
    self_s = result["self_s"]
    assert abs(self_s["sim"] - (1.0 + 0.5 + 0.3)) < 1e-12
    assert abs(self_s["kernel"] - (2.0 + 0.1 + 0.2 + 0.1)) < 1e-12
    assert self_s["other"] == 0.25
    assert abs(sum(self_s.values()) - sum(s[2] for s in stats.values())) < 1e-12
    assert result["calls"] == {"sim": 8, "kernel": 3, "other": 1}
    assert result["counts"]["heap_cmps"] == 7
    assert result["counts"]["charges"] == 0


def test_smoke_run_emits_every_metric_with_its_unit(tmp_path):
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "simbench.py"),
            "--workload", "udp-stress-vanilla",
            "--seed", "1",
            "--seconds", "0",
            "--trace", "1",
            "--out", str(tmp_path),
        ],
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == 1 + simbench.MIN_REPS + 1
    emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    # The end-to-end metrics are printed, by name and unit, above the result.
    table = "\n".join(lines[:-1])
    for metric in SPEC["end_to_end"]:
        assert any(
            line.split()[:1] == [metric["name"]] and metric["unit"] in line.split()
            for line in table.splitlines()
        ), metric["name"]
    assert (tmp_path / "udp-stress-vanilla.prof").is_file()


def _fake_record(fidelity: dict) -> dict:
    return {
        "setup_s": 0.05,
        "run_s": 1.0,
        "peak_rss_mb": 20.0,
        "sent": 10,
        "fidelity": copy.deepcopy(fidelity),
    }


def test_planted_wrong_output_counts_as_failed_rep(monkeypatch, tmp_path):
    expected = simbench.load_expected(1, "udp-stress-vanilla")
    planted = dict(expected, messages_delivered=expected["messages_delivered"] + 1)
    monkeypatch.setattr(
        simbench, "run_child", lambda *args: _fake_record(planted)
    )
    result = simbench.measure(
        "udp-stress-vanilla", 1, 0.0, False, tmp_path, time.monotonic() + 60, expected
    )
    assert result["attempted"] == 1 + simbench.MIN_REPS
    assert result["failed"] == result["attempted"]
    assert result["end_to_end"] == {}

    # Without a pinned output, a rep that disagrees with the others fails.
    records = iter(
        [_fake_record(expected)] * 2 + [_fake_record(planted)] + [_fake_record(expected)]
    )
    monkeypatch.setattr(simbench, "run_child", lambda *args: next(records))
    result = simbench.measure(
        "udp-stress-vanilla", 2, 0.0, False, tmp_path, time.monotonic() + 60, None
    )
    assert (result["attempted"], result["failed"]) == (4, 1)
    assert "differ from the other reps" in result["failures"][0]
    assert result["end_to_end"]["wall_ms_per_sim_ms"]["n"] == 2


def _set_file(path: Path, wall: float, charges: int) -> str:
    samples = {
        "wall_ms_per_sim_ms": [wall * f for f in (0.99, 1.0, 1.0, 1.01)],
        "setup_s": [0.07] * 4,
        "peak_rss_mb": [22.7] * 4,
    }
    workload = {
        "attempted": 6,
        "failed": 0,
        "end_to_end": {
            name: simbench.summarize(values, min(values)) for name, values in samples.items()
        },
        "counts": {"charges": charges, "events": 1000},
    }
    path.write_text(json.dumps({"workloads": {"udp-stress-vanilla": workload}}))
    return str(path)


def test_compare_flags_a_regression_beyond_the_bound(tmp_path, capsys):
    bound = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}["wall_ms_per_sim_ms"]
    a = _set_file(tmp_path / "a.json", 100.0, 500)
    same = _set_file(tmp_path / "same.json", 100.0 * (1 + bound / 2), 500)
    slower = _set_file(tmp_path / "slower.json", 100.0 * (1 + 2 * bound), 500)
    recounted = _set_file(tmp_path / "recounted.json", 100.0, 501)

    assert simbench.compare(a, same, SPEC) == 0
    assert "REGRESSION" not in capsys.readouterr().out

    assert simbench.compare(a, slower, SPEC) == 1
    out = capsys.readouterr().out
    assert any("wall_ms_per_sim_ms" in line and "REGRESSION" in line for line in out.splitlines())

    assert simbench.compare(a, recounted, SPEC) == 1
    assert "count charges: A 500  B 501  DIFFERS" in capsys.readouterr().out


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(rep.WORKLOADS)
    assert set(rep.RUN_MS) == set(rep.WORKLOADS)
    assert set(simbench.load_expected(1, w) is not None for w in rep.WORKLOADS) == {True}
