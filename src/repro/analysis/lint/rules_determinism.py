"""Determinism rules (SIM1xx).

Two runs of the simulator with the same seed must be bit-identical:
golden traces, the differential suite and the seed-matrix tests all rest
on it. These rules ban the ways nondeterminism classically leaks into a
DES — wall-clock reads, RNG that bypasses the seeded registry, object
identity as an ordering key, and set iteration feeding the scheduler.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Set

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

#: Call names whose presence marks a loop body as feeding the event
#: scheduler (the DES engine API plus the softirq raise/enqueue layer).
SCHEDULING_CALLS: Set[str] = {
    "schedule",
    "schedule_at",
    "submit",
    "submit_multi",
    "raise_net_rx",
    "enqueue_backlog",
    "enqueue_to_backlog",
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


class UnseededRngRule(Rule):
    """SIM102: RNG that does not flow through the RngRegistry."""

    id = "SIM102"
    title = "all randomness via sim.rng.RngRegistry"
    rationale = (
        "Module-level random functions share hidden global state; "
        "os.urandom/uuid4/secrets are nondeterministic by design. Every "
        "draw must come from a named, seeded RngRegistry stream so that "
        "perturbing one component cannot shift another's draws."
    )

    _BANNED_PREFIXES = ("random.", "numpy.random.", "secrets.")
    _BANNED_EXACT = {
        "os.urandom",
        "os.getrandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "random",  # ``from random import random`` resolves to random.random
    }

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        assert ctx.tree is not None
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.resolve(node.func)
            if resolved is None or resolved[0] != "module":
                continue
            name = resolved[1]
            if name in self._BANNED_EXACT or any(
                name.startswith(prefix) or name == prefix[:-1]
                for prefix in self._BANNED_PREFIXES
            ):
                yield self.finding(
                    ctx, node,
                    f"direct RNG call {name}() — draw from a named "
                    "sim.rng.RngRegistry stream instead",
                )


class IdentityOrderingRule(Rule):
    """SIM103: ordering derived from id() or object hash()."""

    id = "SIM103"
    title = "no id()/hash()-derived ordering"
    rationale = (
        "id() is a heap address and object.__hash__ derives from it; "
        "ordering by either changes run to run. Ties in event ordering "
        "must break on explicit sequence numbers (engine.Event.seq)."
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


class SetIterationRule(Rule):
    """SIM104: set iteration feeding event scheduling."""

    id = "SIM104"
    title = "no set iteration into the scheduler"
    rationale = (
        "Set iteration order depends on insertion history and (for str "
        "keys) on PYTHONHASHSEED. Scheduling events while iterating a "
        "set makes tie-breaking nondeterministic; iterate a list or "
        "sorted() view instead."
    )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        assert ctx.tree is not None
        for func in ctx.functions():
            set_names = self._set_names(func)
            for node in ast.walk(func):
                if not isinstance(node, (ast.For, ast.AsyncFor)):
                    continue
                if not self._is_set_expr(node.iter, set_names):
                    continue
                if self._body_schedules(node.body):
                    yield self.finding(
                        ctx, node,
                        "iterating a set while scheduling events — set "
                        "order is not deterministic; use a list or "
                        "sorted() with an explicit key",
                    )

    @staticmethod
    def _set_names(func: ast.AST) -> Set[str]:
        """Local names whose every assignment is a set expression."""
        assigned: Dict[str, List[bool]] = {}
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                value_is_set = SetIterationRule._is_set_literalish(node.value)
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        assigned.setdefault(target.id, []).append(value_is_set)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    assigned.setdefault(node.target.id, []).append(
                        SetIterationRule._is_set_literalish(node.value)
                    )
        return {name for name, flags in assigned.items() if flags and all(flags)}

    @staticmethod
    def _is_set_literalish(node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("set", "frozenset")
        return False

    @classmethod
    def _is_set_expr(cls, node: ast.AST, set_names: Set[str]) -> bool:
        if cls._is_set_literalish(node):
            return True
        return isinstance(node, ast.Name) and node.id in set_names

    @staticmethod
    def _body_schedules(body: Iterable[ast.stmt]) -> bool:
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    if last_segment(node.func) in SCHEDULING_CALLS:
                        return True
        return False


DETERMINISM_RULES = (
    WallClockRule(),
    UnseededRngRule(),
    IdentityOrderingRule(),
    SetIterationRule(),
)
