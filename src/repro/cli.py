"""Command-line interface for exploratory runs.

Examples::

    python -m repro.cli stress   --mode overlay --size 16 --falcon
    python -m repro.cli fixed    --mode host --size 1024 --rate 300000
    python -m repro.cli tcp      --mode overlay --size 4096 --falcon --split-gro
    python -m repro.cli latency  --size 16 --rate 300000
    python -m repro.cli figures  --quick --only fig10_udp_stress

`figures` delegates to :mod:`repro.experiments.run_all`; the other
subcommands build a single scenario and print one result row plus the
per-core utilization — the fastest way to poke at a configuration.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.config import FalconConfig
from repro.metrics.report import Table
from repro.workloads.sockperf import Experiment, RunResult


def _falcon_from_args(args) -> Optional[FalconConfig]:
    if not args.falcon:
        return None
    return FalconConfig(
        cpus=[int(cpu) for cpu in args.falcon_cpus.split(",")],
        load_threshold=args.load_threshold,
        policy=args.policy,
        split_gro=args.split_gro,
    )


def _experiment(args) -> Experiment:
    return Experiment(
        mode=args.mode,
        falcon=_falcon_from_args(args),
        kernel=args.kernel,
        bandwidth_gbps=args.bandwidth,
        steering=args.steering,
        seed=args.seed,
    )


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


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mode", choices=["host", "overlay"], default="overlay")
    parser.add_argument("--size", type=int, default=16, help="message bytes")
    parser.add_argument("--kernel", choices=["4.19", "5.4"], default="4.19")
    parser.add_argument("--bandwidth", type=float, default=100.0, help="link Gbps")
    parser.add_argument("--steering", choices=["rps", "rfs"], default="rps")
    parser.add_argument("--duration-ms", type=float, default=20.0)
    parser.add_argument("--warmup-ms", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--falcon", action="store_true", help="enable Falcon")
    parser.add_argument("--falcon-cpus", default="3,4,5,6")
    parser.add_argument("--load-threshold", type=float, default=0.85)
    parser.add_argument(
        "--policy", choices=["two_choice", "static", "least_loaded"],
        default="two_choice",
    )
    parser.add_argument("--split-gro", action="store_true")


def _add_baseline_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="enforce the suppressed-findings ratchet against FILE "
        "(new or stale suppressions fail)",
    )
    parser.add_argument(
        "--write-baseline",
        default=None,
        metavar="FILE",
        help="regenerate the suppressed-findings baseline into FILE",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    stress = sub.add_parser("stress", help="UDP single-flow saturating stress")
    _add_common(stress)
    stress.add_argument("--clients", type=int, default=3)

    fixed = sub.add_parser("fixed", help="UDP single flow at a fixed rate")
    _add_common(fixed)
    fixed.add_argument("--rate", type=float, required=True, help="messages/s")
    fixed.add_argument("--poisson", action="store_true")

    tcp = sub.add_parser("tcp", help="closed-loop TCP stream")
    _add_common(tcp)
    tcp.add_argument("--window", type=int, default=64, help="messages in flight")

    latency = sub.add_parser(
        "latency", help="Poisson fixed-rate latency comparison across modes"
    )
    _add_common(latency)
    latency.add_argument("--rate", type=float, default=300_000.0)

    figures = sub.add_parser("figures", help="regenerate paper figures")
    figures.add_argument("--quick", action="store_true")
    figures.add_argument("--out", default="results")
    figures.add_argument("--only", default=None, help="comma-separated list")

    lint = sub.add_parser(
        "lint",
        help="run the simlint static-analysis pass (determinism, "
        "DES-discipline, simulated-concurrency contracts)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--format", choices=["text", "json"], default="text", dest="fmt"
    )
    lint.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="ID",
        help="run only this rule id (repeatable, e.g. --rule SIM101)",
    )
    lint.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue"
    )
    _add_baseline_args(lint)

    flow = sub.add_parser(
        "flow",
        help="run the simflow dataflow pass (skb typestate, time-unit "
        "taint, static/dynamic stage-graph cross-check)",
    )
    flow.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    flow.add_argument(
        "--format", choices=["text", "json"], default="text", dest="fmt"
    )
    flow.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="ID",
        help="run only this rule id (repeatable, e.g. --rule FLOW402)",
    )
    flow.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue"
    )
    flow.add_argument(
        "--trace",
        nargs="*",
        default=None,
        metavar="GOLDEN_JSON",
        help="cross-check the static stage graph against golden traces "
        "(default: every trace in tests/goldens); skips the dataflow rules",
    )
    flow.add_argument(
        "--dump-spec",
        action="store_true",
        help="print the derived stage-order spec as JSON and exit",
    )
    _add_baseline_args(flow)

    order = sub.add_parser(
        "order",
        help="run the simorder pass (partition-invariance taint, "
        "cross-shard causality, flowcache ordering typestate)",
    )
    order.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    order.add_argument(
        "--format", choices=["text", "json"], default="text", dest="fmt"
    )
    order.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="ID",
        help="run only this rule id (repeatable, e.g. --rule ORD511)",
    )
    order.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue"
    )
    order.add_argument(
        "--trace",
        nargs="*",
        default=None,
        metavar="GOLDEN_JSON",
        help="cross-check per-flow delivery order and fastpath edges "
        "against golden traces (default: every trace in tests/goldens); "
        "skips the static rules",
    )
    _add_baseline_args(order)

    san = sub.add_parser(
        "san",
        help="run the simsan ownership pass (skb ownership transfer, "
        "flow-cache entry lifecycle)",
    )
    san.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    san.add_argument(
        "--format", choices=["text", "json"], default="text", dest="fmt"
    )
    san.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="ID",
        help="run only this rule id (repeatable, e.g. --rule OWN611)",
    )
    san.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue"
    )
    san.add_argument(
        "--trace",
        action="store_true",
        help="run a sanitized dynamic probe and cross-check its site tags "
        "against the static instrumentation catalog; skips the static rules",
    )
    _add_baseline_args(san)

    check = sub.add_parser(
        "check",
        help="run every static gate in one pass: lint + flow + order + san "
        "(each against its committed baseline) + the mypy strict gate",
    )
    check.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    check.add_argument(
        "--format", choices=["text", "json"], default="text", dest="fmt"
    )
    check.add_argument(
        "--require-mypy",
        action="store_true",
        help="fail (instead of skipping) when mypy is not installed "
        "(CI mode)",
    )

    cluster = sub.add_parser(
        "cluster",
        help="run a multi-host ring scenario on the sharded engine "
        "(--shards N splits the hosts across worker processes)",
    )
    cluster.add_argument("--proto", choices=["udp", "tcp"], default="udp")
    cluster.add_argument("--hosts", type=int, default=4)
    cluster.add_argument(
        "--shards", type=int, default=1,
        help="shard count (must divide into the host set; default 1)",
    )
    cluster.add_argument(
        "--transport",
        choices=["inline", "process"],
        default=None,
        help="inline = all shards in this process (deterministic "
        "reference); process = one spawn worker per shard "
        "(default: inline for 1 shard, process otherwise)",
    )
    cluster.add_argument("--size", type=int, default=512, help="message bytes")
    cluster.add_argument(
        "--rate", type=float, default=None,
        help="UDP per-flow rate in messages/s (default: saturating)",
    )
    cluster.add_argument(
        "--window", type=int, default=8, help="TCP messages in flight"
    )
    cluster.add_argument("--seed", type=int, default=0)
    cluster.add_argument("--falcon", action="store_true", help="enable Falcon")
    cluster.add_argument("--bandwidth", type=float, default=10.0, help="link Gbps")
    cluster.add_argument(
        "--propagation-us", type=float, default=5.0,
        help="inter-host propagation delay (the sync lookahead)",
    )
    cluster.add_argument("--duration-us", type=float, default=5000.0)
    cluster.add_argument("--warmup-us", type=float, default=2000.0)

    validate = sub.add_parser(
        "validate",
        help="run the simulator validation suites (invariants, differential, golden)",
    )
    validate.add_argument(
        "--suite",
        choices=["all", "invariants", "differential", "golden"],
        default="all",
    )
    validate.add_argument(
        "--quick", action="store_true", help="shorter runs (CI smoke mode)"
    )
    validate.add_argument(
        "--regen-goldens",
        action="store_true",
        help="rewrite the checked-in golden traces from this run",
    )
    validate.add_argument(
        "--golden-dir", default=None, help="override the golden trace directory"
    )
    validate.add_argument(
        "--inject",
        choices=["corrupt-counter", "lost-packet"],
        default=None,
        help="deliberately break an invariant mid-run (monitor self-test; "
        "the command must then fail)",
    )
    return parser


def _apply_baseline(args, result, label: str) -> Optional[int]:
    """Handle --baseline / --write-baseline; None means keep going."""
    from repro.analysis.baseline import (
        check_baseline,
        load_baseline_file,
        render_baseline,
    )

    if args.write_baseline:
        with open(args.write_baseline, "w", encoding="utf-8") as handle:
            handle.write(render_baseline(result))
        print(f"repro {label}: baseline written to {args.write_baseline}")
        return 0 if result.ok else 1
    if args.baseline:
        try:
            frozen = load_baseline_file(args.baseline)
        except (OSError, ValueError) as exc:
            print(f"repro {label}: {exc}", file=sys.stderr)
            return 2
        errors = check_baseline(result, frozen)
        for error in errors:
            print(f"baseline: {error}", file=sys.stderr)
        if errors or not result.ok:
            return 1
        return 0
    return None


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "figures":
        from repro.experiments.run_all import run_all

        only = set(args.only.split(",")) if args.only else None
        run_all(quick=args.quick, out_dir=args.out, only=only)
        return 0

    if args.command == "lint":
        from repro.analysis.lint import (
            ALL_RULES,
            lint_paths,
            render_json,
            render_text,
        )

        if args.list_rules:
            for rule in ALL_RULES:
                scope = (
                    ", ".join(rule.scope) if rule.scope else "all linted files"
                )
                print(f"{rule.id}  {rule.title}")
                print(f"    scope: {scope}")
                print(f"    {rule.rationale}")
            return 0
        try:
            result = lint_paths(args.paths, rule_ids=args.rule)
        except ValueError as exc:
            print(f"repro lint: {exc}", file=sys.stderr)
            return 2
        print(render_json(result) if args.fmt == "json" else render_text(result))
        baseline_rc = _apply_baseline(args, result, "lint")
        if baseline_rc is not None:
            return baseline_rc
        return 0 if result.ok else 1

    if args.command == "flow":
        from repro.analysis.flow import FLOW_RULES, cross_check, flow_paths, stage_order_spec
        from repro.analysis.lint import render_json, render_text

        if args.list_rules:
            for rule in FLOW_RULES:
                scope = (
                    ", ".join(rule.scope) if rule.scope else "all analyzed files"
                )
                print(f"{rule.id}  {rule.title}")
                print(f"    scope: {scope}")
                print(f"    {rule.rationale}")
            return 0
        if args.dump_spec:
            import json as _json

            print(_json.dumps(stage_order_spec().describe(), indent=2, sort_keys=True))
            return 0
        if args.trace is not None:
            check = cross_check(args.trace)
            print(check.to_json() if args.fmt == "json" else check.to_text())
            return 0 if check.ok else 1
        try:
            result = flow_paths(args.paths, rule_ids=args.rule)
        except ValueError as exc:
            print(f"repro flow: {exc}", file=sys.stderr)
            return 2
        print(render_json(result) if args.fmt == "json" else render_text(result))
        baseline_rc = _apply_baseline(args, result, "flow")
        if baseline_rc is not None:
            return baseline_rc
        return 0 if result.ok else 1

    if args.command == "order":
        from repro.analysis.lint import render_json, render_text
        from repro.analysis.order import (
            ORDER_RULES,
            order_cross_check,
            order_paths,
        )

        if args.list_rules:
            for rule in ORDER_RULES:
                scope = (
                    ", ".join(rule.scope) if rule.scope else "all analyzed files"
                )
                print(f"{rule.id}  {rule.title}")
                print(f"    scope: {scope}")
                print(f"    {rule.rationale}")
            return 0
        if args.trace is not None:
            check = order_cross_check(args.trace)
            print(check.to_json() if args.fmt == "json" else check.to_text())
            return 0 if check.ok else 1
        try:
            result = order_paths(args.paths, rule_ids=args.rule)
        except ValueError as exc:
            print(f"repro order: {exc}", file=sys.stderr)
            return 2
        print(render_json(result) if args.fmt == "json" else render_text(result))
        baseline_rc = _apply_baseline(args, result, "order")
        if baseline_rc is not None:
            return baseline_rc
        return 0 if result.ok else 1

    if args.command == "san":
        from repro.analysis.lint import render_json, render_text
        from repro.analysis.san import SAN_RULES, san_cross_check, san_paths

        if args.list_rules:
            for rule in SAN_RULES:
                scope = (
                    ", ".join(rule.scope) if rule.scope else "all analyzed files"
                )
                print(f"{rule.id}  {rule.title}")
                print(f"    scope: {scope}")
                print(f"    {rule.rationale}")
            return 0
        if args.trace:
            check = san_cross_check(paths=args.paths)
            if args.fmt == "json":
                import json as _json

                print(
                    _json.dumps(
                        {
                            "ok": check.ok,
                            "static_sites": check.static_sites,
                            "dynamic_sites": check.dynamic_sites,
                            "unknown": check.unknown,
                            "unexercised": check.unexercised,
                        },
                        indent=2,
                        sort_keys=True,
                    )
                )
            else:
                for line in check.render():
                    print(line)
            return 0 if check.ok else 1
        try:
            result = san_paths(args.paths, rule_ids=args.rule)
        except ValueError as exc:
            print(f"repro san: {exc}", file=sys.stderr)
            return 2
        print(render_json(result) if args.fmt == "json" else render_text(result))
        baseline_rc = _apply_baseline(args, result, "san")
        if baseline_rc is not None:
            return baseline_rc
        return 0 if result.ok else 1

    if args.command == "check":
        from repro.analysis.check import run_check

        report = run_check(args.paths, require_mypy=args.require_mypy)
        print(report.to_json() if args.fmt == "json" else report.to_text())
        return 0 if report.ok else 1

    if args.command == "cluster":
        from repro.sim.errors import ConfigurationError
        from repro.overlay.cluster import (
            run_cluster,
            tcp_ring_spec,
            udp_ring_spec,
        )

        common = dict(
            num_hosts=args.hosts,
            message_size=args.size,
            seed=args.seed,
            falcon=args.falcon,
            bandwidth_gbps=args.bandwidth,
            propagation_us=args.propagation_us,
            warmup_us=args.warmup_us,
            duration_us=args.duration_us,
        )
        if args.proto == "udp":
            spec = udp_ring_spec(rate_pps=args.rate, **common)
        else:
            spec = tcp_ring_spec(window_msgs=args.window, **common)
        transport = args.transport or ("inline" if args.shards == 1 else "process")
        try:
            result = run_cluster(spec, shards=args.shards, transport=transport)
        except ConfigurationError as exc:
            print(f"repro cluster: {exc}", file=sys.stderr)
            return 2
        table = Table(
            ["metric", "value"],
            title=f"{args.proto} ring, {args.hosts} hosts, "
            f"{result.shards} shard(s) via {result.transport}",
        )
        table.add_row("messages delivered", f"{result.messages_delivered:,}")
        table.add_row("message rate", f"{result.message_rate_pps/1e3:,.1f} kmsg/s")
        table.add_row("goodput", f"{result.goodput_gbps:.3f} Gbps")
        table.add_row("avg latency", f"{result.avg_latency_us:.1f} us")
        table.add_row("sim events", f"{result.events_processed:,}")
        table.add_row("sync windows", f"{result.windows_run:,}")
        table.add_row("cross-shard records", f"{result.records_exchanged:,}")
        print(table.render())
        for host_doc in result.per_host:
            print(
                f"host {host_doc['host']}: "
                f"{host_doc['messages_delivered']:,} delivered, "
                f"{host_doc['message_rate_pps']/1e3:,.1f} kmsg/s"
            )
        return 0

    if args.command == "validate":
        from repro.validate import run_validation

        outcomes = run_validation(
            suites=args.suite,
            quick=args.quick,
            regen_goldens=args.regen_goldens,
            golden_dir=args.golden_dir,
            inject=args.inject,
        )
        for outcome in outcomes:
            print(outcome.render())
        failed = [outcome for outcome in outcomes if not outcome.ok]
        print(
            f"validate: {len(outcomes) - len(failed)}/{len(outcomes)} scenarios ok"
            + (f", {len(failed)} FAILED" if failed else "")
        )
        return 1 if failed else 0

    if args.command == "stress":
        result = _experiment(args).run_udp_stress(
            args.size, clients=args.clients,
            duration_ms=args.duration_ms, warmup_ms=args.warmup_ms,
        )
        _print_result(result)
        return 0

    if args.command == "fixed":
        result = _experiment(args).run_udp_fixed(
            args.size, rate_pps=args.rate, poisson=args.poisson,
            duration_ms=args.duration_ms, warmup_ms=args.warmup_ms,
        )
        _print_result(result)
        return 0

    if args.command == "tcp":
        result = _experiment(args).run_tcp_stream(
            args.size, window_msgs=args.window,
            duration_ms=args.duration_ms, warmup_ms=args.warmup_ms,
        )
        _print_result(result)
        return 0

    if args.command == "latency":
        table = Table(
            ["case", "avg us", "p90 us", "p99 us", "p99.9 us"],
            title=f"latency at {args.rate/1e3:.0f} kmsg/s, {args.size} B",
        )
        cases = [("host", False), ("overlay", False), ("overlay", True)]
        for mode, use_falcon in cases:
            falcon = (
                FalconConfig(
                    cpus=[int(cpu) for cpu in args.falcon_cpus.split(",")]
                )
                if use_falcon
                else None
            )
            exp = Experiment(
                mode=mode, falcon=falcon, kernel=args.kernel,
                bandwidth_gbps=args.bandwidth, seed=args.seed,
            )
            result = exp.run_udp_fixed(
                args.size, rate_pps=args.rate, poisson=True,
                duration_ms=args.duration_ms, warmup_ms=args.warmup_ms,
            )
            label = f"{mode}+falcon" if use_falcon else mode
            table.add_row(
                label,
                *[result.latency[p] for p in ("avg", "p90", "p99", "p99.9")],
            )
        print(table.render())
        return 0

    return 1  # pragma: no cover - unreachable with required subcommands


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
