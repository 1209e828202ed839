"""Run every figure reproduction and save the rendered tables.

Usage::

    python -m repro.experiments.run_all [--quick] [--out results/] [--only fig10,...]

Each figure's tables are printed and written to ``<out>/<figure>.txt``;
a combined ``ALL.txt`` is written at the end. These files are the
measured counterpart of EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import importlib
import os
import time
from typing import List

from repro.analysis.pragmas import lint_exempt


@lint_exempt(
    "SIM101",
    reason="harness self-timing: measures how long figure generation takes "
    "on the host; never feeds simulated time or results",
)
def wall_seconds() -> float:
    """Wall-clock timestamp (seconds) for harness progress reporting.

    The single sanctioned wall-clock read in the tree — everything under
    simulated time must use ``sim.now`` (enforced by rule SIM101).
    """
    return time.time()


FIGURES: List[str] = [
    "fig02_motivation",
    "fig04_interrupts",
    "fig05_serialization",
    "fig06_flamegraph",
    "fig09_splitting",
    "fig10_udp_stress",
    "fig11_cpu_util",
    "fig12_latency",
    "fig13_multiflow",
    "fig14_multicontainer",
    "fig15_threshold",
    "fig16_adaptability",
    "fig17_webserving",
    "fig18_datacaching",
    "fig19_overhead",
    "fig20_shard_scaling",
    "fig21_flowcache",
]


def run_all(quick: bool = False, out_dir: str = "results", only=None) -> List[str]:
    os.makedirs(out_dir, exist_ok=True)
    selected = FIGURES if not only else [f for f in FIGURES if f in only]
    rendered_all = []
    for name in selected:
        module = importlib.import_module(f"repro.experiments.{name}")
        started = wall_seconds()
        output = module.run(quick=quick)
        elapsed = wall_seconds() - started
        text = output.render() + f"\n\n[completed in {elapsed:.1f}s]\n"
        path = os.path.join(out_dir, f"{name}.txt")
        with open(path, "w") as handle:
            handle.write(text)
        print(text)
        rendered_all.append(text)
    with open(os.path.join(out_dir, "ALL.txt"), "w") as handle:
        handle.write("\n\n".join(rendered_all))
    return rendered_all


def main() -> None:  # pragma: no cover - CLI entry
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="reduced sweeps")
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument(
        "--only", default=None, help="comma-separated figure list (e.g. fig10_udp_stress)"
    )
    args = parser.parse_args()
    only = set(args.only.split(",")) if args.only else None
    run_all(quick=args.quick, out_dir=args.out, only=only)


if __name__ == "__main__":  # pragma: no cover
    main()
