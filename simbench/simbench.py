"""simbench: the simulator's host cost per simulated ms, fidelity-checked.

Measures the simulator in ``<checkout>/src`` from outside. One parent
process runs repetitions ("reps") one at a time, each in a fresh child
interpreter (``rep.py``), so at most the parent and one child exist at
once. Per workload: one warm-up rep (its timing is discarded; it absorbs
.pyc compilation and the file cache), then timed reps until ``--seconds``
have passed (at least :data:`MIN_REPS`), then, when tracing, one rep
under cProfile for the per-layer numbers.

Every rep's simulated outputs are checked: at seed 1 against
``expected_seed1.json``, at every seed against the other reps of the run.
A rep that crashes, times out or mismatches counts as failed.

Usage::

    python3 simbench/simbench.py                      # every workload, traced, writes a set file
    python3 simbench/simbench.py --workload NAME --seed N --seconds S --trace 0|1
    python3 simbench/simbench.py compare A.json B.json

With ``--workload`` the last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from rep import COUNTED, LAYERS, PACKAGE_DIR, RUN_MS  # noqa: E402

SPEC_PATH = HERE.parent / "BENCHMARK.json"
#: Simulated outputs pinned at one seed.
EXPECTED_SEED = 1
EXPECTED_PATH = HERE / "expected_seed1.json"
DEFAULT_OUT = HERE / "out"

#: Fewest timed reps per workload, however short ``--seconds`` is, so a
#: median and quartiles always exist.
MIN_REPS = 3
#: Wall-clock limit for one rep.
REP_TIMEOUT_S = 120.0
#: Wall-clock limit for one ``--workload`` run, reps included.
RUN_BUDGET_S = 170.0


class RepFailed(Exception):
    """A rep crashed, timed out or printed no record."""


def load_spec() -> Dict[str, Any]:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def child_env() -> Dict[str, str]:
    # REPRO_* variables select schedulers and sanitizers; the expected
    # outputs and the timings are for the default configuration.
    return {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}


def run_child(
    workload: str, seed: int, profile: Optional[Path], timeout_s: float
) -> Dict[str, Any]:
    """Run one rep in a fresh interpreter; return its JSON record."""
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload, "--seed", str(seed)]
    if profile is not None:
        cmd += ["--profile", str(profile)]
    try:
        proc = subprocess.run(
            cmd,
            capture_output=True,
            text=True,
            timeout=max(timeout_s, 1.0),
            env=child_env(),
            cwd=str(HERE.parent),
        )
    except subprocess.TimeoutExpired:
        raise RepFailed(f"timed out after {timeout_s:.0f} s") from None
    if proc.returncode != 0:
        tail = (proc.stderr.strip().splitlines() or ["no stderr"])[-1]
        raise RepFailed(f"exit {proc.returncode}: {tail}")
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise RepFailed("printed no JSON record") from None


def load_expected(seed: int, workload: str) -> Optional[Dict[str, Any]]:
    """The pinned simulated outputs of ``workload`` at ``seed``, if any."""
    if seed != EXPECTED_SEED:
        return None
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)[workload]


def check_fidelity(
    records: List[Dict[str, Any]], expected: Optional[Dict[str, Any]]
) -> List[Optional[str]]:
    """Per record: None when its simulated outputs are right, else why not.

    The reference is ``expected`` when given, else the outputs most reps
    agree on. Every rep must also deliver at least one message.
    """
    canon = [json.dumps(record["fidelity"], sort_keys=True) for record in records]
    if expected is not None:
        reference = json.dumps(expected, sort_keys=True)
        label = "expected"
    else:
        reference = Counter(canon).most_common(1)[0][0] if canon else ""
        label = "the other reps"
    verdicts: List[Optional[str]] = []
    for record, text in zip(records, canon):
        if record["fidelity"]["messages_delivered"] < 1:
            verdicts.append("delivered no messages")
        elif text != reference:
            verdicts.append(
                f"simulated outputs differ from {label} "
                f"(digest {record['fidelity']['digest'][:12]})"
            )
        else:
            verdicts.append(None)
    return verdicts


def summarize(values: Sequence[float], value: float) -> Dict[str, Any]:
    """An end-to-end metric: its reported value, and the median,
    quartiles, count and list of its per-rep samples."""
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {
        "value": value,
        "median": median,
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "samples": list(values),
    }


def per_layer_metrics(
    traced: Dict[str, Any], timed_run_s: float
) -> Dict[str, float]:
    """Per-layer metric values from one traced rep's record."""
    profile = traced["profile"]
    fidelity = traced["fidelity"]
    delivered = fidelity["messages_delivered"]
    events = fidelity["events"]
    counts = profile["counts"]
    total_self = sum(profile["self_s"].values()) or 1.0
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = profile["self_s"].get(layer, 0.0) / total_self
        metrics[f"{layer}.calls_per_msg"] = profile["calls"].get(layer, 0) / delivered
    metrics.update(
        {
            "sim.events_per_msg": events / delivered,
            "sim.heap_cmps_per_event": counts["heap_cmps"] / events,
            "sim.event_allocs_per_event": counts["event_allocs"] / events,
            "sim.cancels_per_event": counts["cancels"] / events,
            "metrics.charges_per_msg": counts["charges"] / delivered,
            "hw.work_items_per_msg": counts["work_items"] / delivered,
            "kernel.stage_items_per_msg": counts["stage_items"] / delivered,
            "kernel.softirq_batches_per_msg": counts["softirq_batches"] / delivered,
            "kernel.flowcache_lookups_per_msg": counts["flowcache_lookups"] / delivered,
            "core.steer_calls_per_msg": counts["steer_calls"] / delivered,
            "workloads.sent_per_delivered": traced["sent"] / delivered,
            "trace_overhead_x": traced["run_s"] / timed_run_s,
        }
    )
    return metrics


def exact_counts(traced: Dict[str, Any]) -> Dict[str, int]:
    """The traced rep's raw counts: these repeat exactly for one seed."""
    profile = traced["profile"]
    counts = {f"{layer}.calls": int(profile["calls"].get(layer, 0)) for layer in LAYERS}
    counts.update({counter: int(profile["counts"][counter]) for counter in COUNTED})
    counts["events"] = traced["fidelity"]["events"]
    counts["messages_delivered"] = traced["fidelity"]["messages_delivered"]
    counts["sent"] = traced["sent"]
    return counts


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    out_dir: Path,
    deadline: float,
    expected: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Warm-up, timed reps for ``seconds``, then optionally a traced rep."""
    records: List[Dict[str, Any]] = []
    roles: List[str] = []
    failures: List[str] = []
    crashed = 0

    def rep(role: str, profile: Optional[Path] = None) -> None:
        nonlocal crashed
        remaining = deadline - time.monotonic()
        try:
            record = run_child(workload, seed, profile, min(REP_TIMEOUT_S, remaining))
        except RepFailed as exc:
            crashed += 1
            failures.append(f"{role} rep: {exc}")
            return
        records.append(record)
        roles.append(role)

    rep("warm-up")
    start = time.monotonic()
    timed = 0
    while timed < MIN_REPS or time.monotonic() - start < seconds:
        rep("timed")
        timed += 1
    if trace:
        out_dir.mkdir(parents=True, exist_ok=True)
        rep("traced", out_dir / f"{workload}.prof")

    verdicts = check_fidelity(records, expected)
    good = [(record, role) for record, role, why in zip(records, roles, verdicts) if why is None]
    failures += [f"{role} rep: {why}" for role, why in zip(roles, verdicts) if why is not None]
    timed_ok = [record for record, role in good if role == "timed"]
    traced_ok = [record for record, role in good if role == "traced"]

    result: Dict[str, Any] = {
        "attempted": len(records) + crashed,
        "failed": len(failures),
        "failures": failures,
        "digest": good[0][0]["fidelity"]["digest"] if good else None,
        "end_to_end": {},
        "per_layer": {},
        "counts": {},
    }
    if timed_ok:
        sim_ms = sum(RUN_MS[workload])
        walls = [r["run_s"] * 1e3 / sim_ms for r in timed_ok]
        setups = [r["setup_s"] for r in timed_ok]
        rss = [r["peak_rss_mb"] for r in timed_ok]
        # Host noise only ever adds time to a deterministic computation,
        # so the fastest rep is the steadiest estimate of the code's own
        # cost (Chen & Revels, "Robust benchmarking in noisy
        # environments", 2016).
        result["end_to_end"] = {
            "wall_ms_per_sim_ms": summarize(walls, min(walls)),
            "setup_s": summarize(setups, statistics.median(setups)),
            "peak_rss_mb": summarize(rss, statistics.median(rss)),
        }
        if traced_ok:
            timed_run_s = min(r["run_s"] for r in timed_ok)
            result["per_layer"] = per_layer_metrics(traced_ok[0], timed_run_s)
            result["counts"] = exact_counts(traced_ok[0])
    return result


def metric_units(spec: Dict[str, Any]) -> Dict[str, str]:
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def print_workload(name: str, result: Dict[str, Any], units: Dict[str, str]) -> None:
    print(f"== {name}: {result['attempted']} reps, {result['failed']} failed")
    for failure in result["failures"]:
        print(f"   FAILED {failure}")
    for metric, stats in result["end_to_end"].items():
        print(
            f"   {metric:34s} {stats['value']:12.5g} {units[metric]:12s}"
            f" per rep: median {stats['median']:.5g}  q1 {stats['q1']:.5g}"
            f"  q3 {stats['q3']:.5g}  n {stats['n']}"
        )
    for metric, value in result["per_layer"].items():
        print(f"   {metric:34s} {value:12.5g} {units[metric]}")


def driver_run(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    """``--workload``: one workload, one JSON result line last."""
    deadline = time.monotonic() + RUN_BUDGET_S
    result = measure(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        args.out,
        deadline,
        load_expected(args.seed, args.workload),
    )
    units = metric_units(spec)
    print_workload(args.workload, result, units)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    correct = result["failed"] == 0
    metrics: Dict[str, Dict[str, Any]] = {}
    for metric in wanted:
        name = metric["name"]
        if args.trace:
            value = result["per_layer"].get(name)
        else:
            value = result["end_to_end"].get(name, {}).get("value")
        if value is None:
            correct = False
            continue
        metrics[name] = {"value": value, "unit": metric["unit"]}
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


def set_run(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    """No ``--workload``: every workload, traced, into one set file."""
    units = metric_units(spec)
    results: Dict[str, Any] = {}
    for workload in (w["name"] for w in spec["workloads"]):
        result = measure(
            workload,
            args.seed,
            args.seconds,
            True,
            args.out,
            time.monotonic() + RUN_BUDGET_S,
            load_expected(args.seed, workload),
        )
        print_workload(workload, result, units)
        print(f"   digest {result['digest']}")
        results[workload] = result
    document = {
        "seed": args.seed,
        "seconds": args.seconds,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "units": units,
        "workloads": results,
    }
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / "simbench.json"
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    failed = sum(result["failed"] for result in results.values())
    print(f"wrote {path}; {failed} failed reps")
    return 0 if failed == 0 else 1


def compare(path_a: str, path_b: str, spec: Dict[str, Any]) -> int:
    """For each workload and end-to-end metric, how much worse B's value
    is than A's, against the metric's bound; then any per-layer count
    that differs. Returns 1 on a regression or a differing count."""
    with open(path_a) as handle:
        doc_a = json.load(handle)
    with open(path_b) as handle:
        doc_b = json.load(handle)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    problems = 0
    print(f"A = {path_a}\nB = {path_b}")
    for workload in doc_a["workloads"]:
        a = doc_a["workloads"][workload]
        b = doc_b["workloads"].get(workload)
        if b is None:
            print(f"== {workload}: missing from B")
            problems += 1
            continue
        rate_a = a["failed"] / a["attempted"] if a["attempted"] else 1.0
        rate_b = b["failed"] / b["attempted"] if b["attempted"] else 1.0
        verdict = "ok" if rate_b <= rate_a else "REGRESSION"
        problems += verdict != "ok"
        print(f"== {workload}")
        print(f"   {'fail_rate':18s} A {rate_a:.4g}  B {rate_b:.4g}  (any increase)  {verdict}")
        for name, metric in bounds.items():
            stats_a = a["end_to_end"].get(name)
            stats_b = b["end_to_end"].get(name)
            if not stats_a or not stats_b:
                print(f"   {name:18s} missing")
                problems += 1
                continue
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (stats_b["value"] - stats_a["value"]) / stats_a["value"]
            spread = (stats_a["q3"] - stats_a["q1"]) / stats_a["median"]
            if worse <= metric["bound"]:
                verdict = "ok"
            elif spread > metric["bound"]:
                verdict = "unresolved (A's spread is wider than the bound)"
            else:
                verdict = "REGRESSION"
                problems += 1
            print(f"   {name} ({metric['unit']}): {verdict}")
            for side, stats in (("A", stats_a), ("B", stats_b)):
                print(
                    f"     {side} {stats['value']:.5g}  median {stats['median']:.5g}"
                    f"  q1 {stats['q1']:.5g}  q3 {stats['q3']:.5g}  n {stats['n']}"
                )
            print(f"     B worse by {worse:+.2%}; bound {metric['bound']:.0%}; A spread {spread:.2%}")
        counts_a, counts_b = a.get("counts", {}), b.get("counts", {})
        differing = sorted(
            key for key in set(counts_a) | set(counts_b) if counts_a.get(key) != counts_b.get(key)
        )
        for key in differing:
            print(f"   count {key}: A {counts_a.get(key)}  B {counts_b.get(key)}  DIFFERS")
        if not differing:
            print(f"   per-layer counts: {len(counts_a)} identical")
        problems += len(differing)
    print(f"{problems} problem(s)")
    return 1 if problems else 0


def main() -> int:
    # On SIGTERM, raise SystemExit: subprocess.run then kills and reaps
    # the running child instead of leaving it orphaned.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    argv = sys.argv[1:]
    spec = load_spec()
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="simbench.py compare")
        parser.add_argument("a")
        parser.add_argument("b")
        args = parser.parse_args(argv[1:])
        return compare(args.a, args.b, spec)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT, help="profiles and set file")
    args = parser.parse_args(argv)
    if not (PACKAGE_DIR / "__init__.py").is_file():
        print(f"simbench: no simulator sources at {PACKAGE_DIR}", file=sys.stderr)
        return 2
    if args.workload:
        return driver_run(args, spec)
    return set_run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
