"""Determinism rules (SIM1xx).

Two runs of the simulator with the same seed must be bit-identical:
golden traces, figure digests and the seed-matrix tests all rest on
it. These rules ban three ways nondeterminism leaks into a DES that
no run-time check reliably sees: wall-clock reads, object identity as
an ordering key, and counters that outlive a run.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Set

from repro.analysis.lint.core import (
    FileContext,
    Finding,
    Rule,
    last_segment,
)

#: Wall-clock entry points. ``time.sleep`` is *blocking*, not a clock
#: read, and is handled by DES202.
WALL_CLOCK_CALLS: Set[str] = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: Ordering helpers whose key function must be deterministic.
ORDERING_CALLS: Set[str] = {
    "sorted",
    "sort",
    "min",
    "max",
    "heappush",
    "heappushpop",
    "nsmallest",
    "nlargest",
}


class WallClockRule(Rule):
    """SIM101: wall-clock time read inside the reproduction."""

    id = "SIM101"
    title = "no wall-clock time"
    rationale = (
        "Simulated time is sim.now; reading the host clock makes results "
        "depend on machine speed and run-to-run scheduling. Harness "
        "self-timing must go through a @lint_exempt-annotated helper."
    )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        assert ctx.tree is not None
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.resolve(node.func)
            if resolved is None:
                continue
            kind, name = resolved
            if kind == "module" and name in WALL_CLOCK_CALLS:
                yield self.finding(
                    ctx, node,
                    f"wall-clock call {name}() — use the simulation clock "
                    "(sim.now) or an explicitly @lint_exempt harness helper",
                )


class IdentityOrderingRule(Rule):
    """SIM103: ordering derived from id() or object hash()."""

    id = "SIM103"
    title = "no id()/hash()-derived ordering"
    rationale = (
        "id() is a heap address and object.__hash__ derives from it; "
        "ordering by either changes run to run. Ties in event ordering "
        "must break on explicit sequence numbers (the engine's heap-entry seq)."
    )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        assert ctx.tree is not None
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = last_segment(node.func)
            if name not in ORDERING_CALLS:
                continue
            yield from self._check_key_kwarg(ctx, node)
            yield from self._check_args(ctx, node)

    def _check_key_kwarg(
        self, ctx: FileContext, node: ast.Call
    ) -> Iterator[Finding]:
        for keyword in node.keywords:
            if keyword.arg != "key":
                continue
            value = keyword.value
            if isinstance(value, ast.Name) and value.id in ("id", "hash"):
                yield self.finding(
                    ctx, value,
                    f"ordering key is builtin {value.id} — object identity "
                    "is not stable across runs",
                )
                continue
            for sub in ast.walk(value):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Name)
                    and sub.func.id in ("id", "hash")
                ):
                    yield self.finding(
                        ctx, sub,
                        f"ordering key calls builtin {sub.func.id}() — "
                        "object identity is not stable across runs",
                    )

    def _check_args(self, ctx: FileContext, node: ast.Call) -> Iterator[Finding]:
        for arg in node.args:
            for sub in ast.walk(arg):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Name)
                    and sub.func.id == "id"
                ):
                    yield self.finding(
                        ctx, sub,
                        "id() feeds an ordering operation — object identity "
                        "is not stable across runs",
                    )


class ModuleCounterRule(Rule):
    """SIM105: module-level mutable counters in the simulated world."""

    id = "SIM105"
    title = "no module-level mutable counters"
    rationale = (
        "A module-level itertools.count() or a `global` rebinding carries "
        "state from one run to the next in the same process, so ids and "
        "results depend on what ran before. Per-run ids and counters "
        "belong to the run's SimContext (e.g. new_flow_id())."
    )
    scope = ("repro.sim", "repro.kernel", "repro.overlay", "repro.workloads")

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        assert ctx.tree is not None
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Global):
                yield self.finding(
                    ctx, node,
                    f"`global {', '.join(node.names)}` rebinds module state "
                    "that outlives the run — keep it on the SimContext",
                )
            elif (
                isinstance(node, ast.Call)
                and ctx.resolve(node.func) == ("module", "itertools.count")
                and not self._inside_function(ctx, node)
            ):
                yield self.finding(
                    ctx, node,
                    "module-level itertools.count() — its ids outlive the "
                    "run; draw them from the SimContext",
                )

    @staticmethod
    def _inside_function(ctx: FileContext, node: ast.AST) -> bool:
        parent = ctx.parents.get(node)
        while parent is not None:
            if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                return True
            parent = ctx.parents.get(parent)
        return False


DETERMINISM_RULES = (
    WallClockRule(),
    IdentityOrderingRule(),
    ModuleCounterRule(),
)
