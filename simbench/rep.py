"""One simbench repetition: build a Testbed, run it, print one JSON line.

Run as a fresh child process by ``simbench.py``::

    python3 simbench/rep.py --workload oncache-ramp --seed 1 [--profile OUT.prof]

Each repetition is its own interpreter, so process-global state of the
simulator (flow-id and container-id counters) starts from zero and every
rep of a seed simulates exactly the same traffic.

The child imports ``<checkout>/src`` and uses only the public Testbed API
(``Testbed(...)``, ``add_udp_flow``, ``run``). Timing stops at the
boundaries of those calls, so the benchmark measures the code as a user
drives it.

Importing this module imports nothing from ``repro``: the parent and the
tests read :data:`WORKLOADS` and :func:`aggregate_profile` without a
simulator on the path.
"""

from __future__ import annotations

import time

# Set-up time is counted from here: module imports and Testbed
# construction are both work a user pays before the first event.
_T0 = time.perf_counter()

import argparse  # noqa: E402
import cProfile  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pstats  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE_DIR = SRC / "repro"

FALCON_CPUS = [3, 4, 5, 6]

#: Simulated run lengths, in ms: (warm-up, measured window).
RUN_MS: Dict[str, Tuple[float, float]] = {
    "udp-stress-vanilla": (10.0, 50.0),
    "udp-stress-falcon": (10.0, 50.0),
    "udp-poisson-falcon": (10.0, 50.0),
    "oncache-ramp": (12.0, 50.0),
}


def _udp_stress(seed: int, falcon: bool) -> Any:
    """Fig. 10 traffic: one 1024 B flow, three saturating clients."""
    from repro.core.config import FalconConfig
    from repro.workloads.sockperf import Testbed

    bed = Testbed(
        mode="overlay",
        falcon=FalconConfig(cpus=list(FALCON_CPUS)) if falcon else None,
        seed=seed,
    )
    bed.add_udp_flow(1024, clients=3)
    return bed


def _udp_poisson_falcon(seed: int) -> Any:
    """Fig. 12a traffic: 16 B messages, open-loop Poisson at 300 kpps."""
    from repro.core.config import FalconConfig
    from repro.workloads.sockperf import Testbed

    bed = Testbed(mode="overlay", falcon=FalconConfig(cpus=list(FALCON_CPUS)), seed=seed)
    bed.add_udp_flow(16, rate_pps=300_000, poisson=True)
    return bed


def _oncache_ramp(seed: int) -> Any:
    """Fig. 21a "ONCache": 8 flows of 512 B, 30 kpps each while the cache
    warms, then 260 kpps each once the measured window opens."""
    from repro.core.config import FlowCacheConfig
    from repro.workloads.sockperf import Testbed
    from repro.workloads.traffic import HotspotSchedule

    bed = Testbed(
        mode="overlay",
        flowcache=FlowCacheConfig(capacity=128),
        rps_cpus=[1, 2],
        app_cpus=list(range(10, 16)),
        seed=seed,
    )
    stress_at_us = RUN_MS["oncache-ramp"][0] * 1000.0
    for _ in range(8):
        schedule = HotspotSchedule([(0.0, 30_000.0), (stress_at_us, 260_000.0)])
        bed.add_udp_flow(512, clients=1, process=schedule)
    return bed


#: Workload name -> Testbed builder taking the seed.
WORKLOADS: Dict[str, Callable[[int], Any]] = {
    "udp-stress-vanilla": lambda seed: _udp_stress(seed, falcon=False),
    "udp-stress-falcon": lambda seed: _udp_stress(seed, falcon=True),
    "udp-poisson-falcon": _udp_poisson_falcon,
    "oncache-ramp": _oncache_ramp,
}

#: The layers of the simulator: top-level packages under ``repro/``.
LAYERS = ("sim", "hw", "kernel", "core", "workloads", "metrics")

#: Per-layer work counts, read from the profile's call counts:
#: counter -> [(file under repro/, function name)].
COUNTED: Dict[str, List[Tuple[str, str]]] = {
    "heap_cmps": [("sim/events.py", "__lt__")],
    "event_allocs": [("sim/events.py", "__init__")],
    "cancels": [("sim/engine.py", "cancel")],
    "charges": [("metrics/cpuacct.py", "charge")],
    "work_items": [("hw/cpu.py", "submit"), ("hw/cpu.py", "submit_multi")],
    "stage_items": [("kernel/stages.py", "run_item")],
    "softirq_batches": [("kernel/softirq.py", "_run_batch")],
    "flowcache_lookups": [
        ("kernel/flowcache.py", "access_rx"),
        ("kernel/flowcache.py", "access_tx"),
    ],
    "steer_calls": [("core/falcon.py", "select_cpu")],
}

#: pstats key: (filename, line, function name).
Func = Tuple[str, int, str]


def canonical_digest(result: Any) -> str:
    """sha256 of a RunResult's fields as sorted, compact JSON."""
    text = json.dumps(dataclasses.asdict(result), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def aggregate_profile(
    stats: Mapping[Func, tuple], package_dir: str
) -> Dict[str, Dict[str, float]]:
    """Fold a ``pstats.Stats.stats`` table into per-layer totals.

    A function belongs to the layer named by its top-level package under
    ``package_dir``. Self time of anything outside the package (C
    builtins, the standard library) is credited to the layer of the
    function that called it, split over callers by the time each call
    edge recorded; a caller that is itself outside the package is
    followed up to its heaviest caller. Returns ``{"self_s": {layer:
    seconds}, "calls": {layer: count}, "counts": {counter: count}}``,
    where the two layer maps hold every layer seen, ``other`` included.
    """
    prefix = package_dir.rstrip(os.sep) + os.sep

    def own_layer(func: Func) -> Optional[str]:
        filename = func[0]
        if not filename.startswith(prefix):
            return None
        head, sep, _rest = filename[len(prefix):].partition(os.sep)
        return head if sep else "other"

    resolved: Dict[Func, str] = {}

    def layer_of(func: Func, seen: frozenset = frozenset()) -> str:
        if func in resolved:
            return resolved[func]
        layer = own_layer(func)
        if layer is None:
            callers = stats[func][4] if func in stats else {}
            candidates = [caller for caller in callers if caller not in seen]
            if candidates:
                heaviest = max(candidates, key=lambda caller: callers[caller][2])
                layer = layer_of(heaviest, seen | {func})
            else:
                layer = "other"
        resolved[func] = layer
        return layer

    self_s: Dict[str, float] = {}
    calls: Dict[str, float] = {}
    for func, (_cc, nc, tt, _ct, callers) in stats.items():
        layer = own_layer(func)
        if layer is not None:
            self_s[layer] = self_s.get(layer, 0.0) + tt
            calls[layer] = calls.get(layer, 0) + nc
            continue
        edge_total = sum(edge[2] for edge in callers.values())
        if not callers or edge_total <= 0.0:
            # No caller recorded any time (or none at all): give the
            # time to the heaviest caller's layer, else to ``other``.
            target = layer_of(func)
            self_s[target] = self_s.get(target, 0.0) + tt
            continue
        for caller, edge in callers.items():
            target = layer_of(caller, frozenset({func}))
            self_s[target] = self_s.get(target, 0.0) + tt * edge[2] / edge_total

    wanted = {
        (suffix, name): counter
        for counter, sites in COUNTED.items()
        for suffix, name in sites
    }
    counts = {counter: 0 for counter in COUNTED}
    for func, (_cc, nc, _tt, _ct, _callers) in stats.items():
        filename, _line, name = func
        if not filename.startswith(prefix):
            continue
        relative = filename[len(prefix):].replace(os.sep, "/")
        counter = wanted.get((relative, name))
        if counter is not None:
            counts[counter] += nc
    return {"self_s": self_s, "calls": calls, "counts": counts}


def run_rep(workload: str, seed: int, profile_path: Optional[str]) -> Dict[str, Any]:
    """Build and run one workload; return the rep's JSON record."""
    bed = WORKLOADS[workload](seed)
    setup_s = time.perf_counter() - _T0
    warmup_ms, measure_ms = RUN_MS[workload]
    profiler = cProfile.Profile() if profile_path else None
    start = time.perf_counter()
    if profiler is None:
        result = bed.run(warmup_ms=warmup_ms, measure_ms=measure_ms)
    else:
        result = profiler.runcall(bed.run, warmup_ms=warmup_ms, measure_ms=measure_ms)
    run_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record: Dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        # The measured window's send count, recovered from the offered
        # rate (RunResult keeps no raw count).
        "sent": round(result.offered_pps * result.duration_us / 1e6),
        "reordered": result.reordered_messages,
        "fidelity": {
            "messages_delivered": result.messages_delivered,
            "events": bed.sim.events_processed,
            "drops": result.drops,
            "p99_latency_us": result.latency["p99"],
            "cache_hits": result.cache_hits,
            "digest": canonical_digest(result),
        },
    }
    if profiler is not None:
        profiler.dump_stats(profile_path)
        stats = pstats.Stats(profiler).stats  # type: ignore[attr-defined]
        record["profile"] = aggregate_profile(stats, str(PACKAGE_DIR))
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--profile", help="wrap bed.run in cProfile; write stats here")
    args = parser.parse_args()
    if not (PACKAGE_DIR / "__init__.py").is_file():
        print(f"simbench: no simulator sources at {PACKAGE_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print(json.dumps(run_rep(args.workload, args.seed, args.profile)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
