"""Command-line interface for exploratory runs.

Examples::

    python -m repro.cli run      udp_fixed_falcon
    python -m repro.cli validate --suite golden
    python -m repro.cli figures  --quick --only fig10_udp_stress
    python -m repro.cli check    src

`run` builds one named entry of the scenario catalogue
(:mod:`repro.scenarios`) and prints its result row plus the per-core
utilization; `validate` runs the catalogue's validation suites,
`figures` delegates to :mod:`repro.experiments.run_all` and `check` to
the static analyzer (:mod:`repro.analysis.check`).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.metrics.report import Table
from repro.scenarios import SCENARIOS, build
from repro.workloads.sockperf import RunResult


def _print_result(result: RunResult) -> None:
    table = Table(["metric", "value"], title=f"{result.mode} / {result.proto}")
    table.add_row("message rate", f"{result.message_rate_pps/1e3:,.1f} kmsg/s")
    table.add_row("goodput", f"{result.goodput_gbps:.2f} Gbps")
    table.add_row("offered", f"{result.offered_pps/1e3:,.1f} kmsg/s")
    for pct in ("avg", "p50", "p90", "p99", "p99.9"):
        table.add_row(f"latency {pct}", f"{result.latency[pct]:.1f} us")
    table.add_row("reordered", result.reordered_messages)
    table.add_row(
        "drops",
        " ".join(f"{k}={v}" for k, v in result.drops.items() if v) or "none",
    )
    print(table.render())
    busy = [
        f"cpu{index}:{util:.0%}"
        for index, util in enumerate(result.cpu_util)
        if util > 0.03
    ]
    print("busy cores:", " ".join(busy) or "(idle)")


def _run(args) -> int:
    entry = SCENARIOS[args.name]
    bed = build(args.name, args.seed)
    _print_result(bed.run(warmup_ms=entry.warmup_ms, measure_ms=entry.measure_ms))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run",
        help="run one named scenario from the catalogue (repro.scenarios)",
    )
    run.add_argument(
        "name",
        choices=sorted(SCENARIOS),
        metavar="NAME",
        help="catalogue entry: " + ", ".join(sorted(SCENARIOS)),
    )
    run.add_argument("--seed", type=int, default=0)

    figures = sub.add_parser("figures", help="regenerate paper figures")
    figures.add_argument("--quick", action="store_true")
    figures.add_argument("--out", default="results")
    figures.add_argument("--only", default=None, help="comma-separated list")

    check = sub.add_parser(
        "check",
        help="run the static analyzer: the determinism and DES rules "
        "and the mypy strict gate",
    )
    check.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    check.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="ID",
        help="run only this rule id (repeatable, e.g. --rule SIM101)",
    )
    check.add_argument(
        "--format", choices=["text", "json"], default="text", dest="fmt"
    )
    check.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue"
    )
    check.add_argument(
        "--require-mypy",
        action="store_true",
        help="fail (instead of skipping) when mypy is not installed "
        "(CI mode)",
    )

    validate = sub.add_parser(
        "validate",
        help="run the simulator validation suites (invariants, golden)",
    )
    validate.add_argument(
        "--suite",
        choices=["all", "invariants", "golden"],
        default="all",
    )
    validate.add_argument(
        "--regen-goldens",
        action="store_true",
        help="rewrite the checked-in golden traces from this run",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "figures":
        from repro.experiments.run_all import run_all

        only = set(args.only.split(",")) if args.only else None
        run_all(quick=args.quick, out_dir=args.out, only=only)
        return 0

    if args.command == "check":
        from repro.analysis.check import run_check
        from repro.analysis.runner import ALL_RULES

        if args.list_rules:
            for rule in ALL_RULES:
                scope = ", ".join(rule.scope) if rule.scope else "all files"
                print(f"{rule.id}  {rule.title}")
                print(f"    scope: {scope}")
                print(f"    {rule.rationale}")
            return 0
        try:
            report = run_check(
                args.paths,
                require_mypy=args.require_mypy,
                rule_ids=args.rule,
            )
        except (OSError, ValueError) as exc:
            print(f"repro check: {exc}", file=sys.stderr)
            return 2
        print(report.to_json() if args.fmt == "json" else report.to_text())
        return 0 if report.ok else 1

    if args.command == "run":
        return _run(args)

    if args.command == "validate":
        from repro.validate import run_validation

        outcomes = run_validation(suites=args.suite, regen_goldens=args.regen_goldens)
        for outcome in outcomes:
            print(outcome.render())
        failed = [outcome for outcome in outcomes if not outcome.ok]
        print(
            f"validate: {len(outcomes) - len(failed)}/{len(outcomes)} scenarios ok"
            + (f", {len(failed)} FAILED" if failed else "")
        )
        return 1 if failed else 0

    return 1  # pragma: no cover - unreachable with required subcommands


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
