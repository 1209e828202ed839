"""Cross-shard causality rules (ORD511, ORD512, ORD513).

The shard coordinator advances every shard to a window barrier and only
then exchanges records; the conservative-lookahead contract is that a
record emitted during a window carries a timestamp at least one
lookahead past the emitting shard's clock — otherwise it lands in the
receiving shard's past and :class:`~repro.sim.shard.coordinator.
ShardCoordinator` raises ``ShardError`` at runtime *for the partitions
that happen to split the two hosts*. These rules make the contract hold
statically for every partition:

``ORD511``  every outbox ``emit(time, kind, dst, payload)`` must pass a
            timestamp **provably bounded below** by now + lookahead: a
            ``... + <propagation/lookahead>`` sum, a value returned by
            ``Link.reserve`` (which charges serialization *and*
            propagation), or a variable that provably holds one. The
            proof is a must-dataflow over the flow family's CFG: a name is
            bounded only when **every** path assigns it a bounded value
            (intersection join).
``ORD512``  reaching through another handle's ``._program`` — mutating a
            world the coordinator did not hand you bypasses the barrier
            entirely. Only a handle touches its *own* program
            (``self._program``).
``ORD513``  constructing a :class:`CrossShardEvent` anywhere other than
            an ``emit``/``from_wire`` function or the records module
            itself — ad-hoc records skip the per-source sequence counter
            that makes the (time, src, seq) merge key total.

Checked against the ``coordinator.py`` / ``transport.py`` /
``cluster.py`` call surface, including the ``RECORD_INVAL`` churn path
(``ClusterWorld._churn`` emits invalidations at ``now + propagation`` —
the same causality bound the TCP credits use).
"""

from __future__ import annotations

import ast
from typing import FrozenSet, List, Optional, Tuple

from repro.analysis.flow.cfg import Cfg, build_cfg
from repro.analysis.flow.engine import call_sites, fixpoint, walk_block
from repro.analysis.lint.core import (
    FamilyRule,
    FileContext,
    Finding,
    Project,
    Rule,
)

#: Must-state: names that provably hold a causality-bounded timestamp on
#: every path reaching the statement.
BoundedState = FrozenSet[str]

EMPTY_BOUNDED: BoundedState = frozenset()

#: Name segments that spell a lookahead-sized delay. ``now + <one of
#: these>`` is exactly the conservative-sync bound.
_LOOKAHEAD_SEGMENTS = frozenset(("propagation", "lookahead", "rtt", "flight"))

#: Calls returning an arrival time >= now + propagation (Link.reserve
#: charges the serialization *and* the propagation delay).
_BOUNDED_CALLS = ("reserve",)

#: Functions sanctioned to construct CrossShardEvent directly: the
#: outbox's own ``emit`` (which owns the per-source seq counter) and the
#: wire decoder ``from_wire`` (which re-validates every field).
_SANCTIONED_CONSTRUCTORS = frozenset(("emit", "from_wire"))

#: The records module defines the class; its own constructions are home.
_RECORDS_MODULE = "repro.sim.shard.records"


def _is_lookahead_name(expr: ast.expr) -> bool:
    if isinstance(expr, ast.Name):
        name = expr.id
    elif isinstance(expr, ast.Attribute):
        name = expr.attr
    else:
        return False
    segments = set(name.lower().strip("_").split("_"))
    return bool(segments & _LOOKAHEAD_SEGMENTS)


def _is_emit_call(call: ast.Call, name: str) -> bool:
    """An outbox-style emission: ``emit(time, kind, dst, payload)``."""
    return name == "emit" and len(call.args) >= 3


class _BoundedAnalysis:
    """Must-analysis: which names hold barrier+lookahead-bounded times."""

    def __init__(
        self,
        ctx: FileContext,
        func: "ast.FunctionDef | ast.AsyncFunctionDef",
        report: Optional[List[Finding]] = None,
    ) -> None:
        self.ctx = ctx
        self.func = func
        self.report = report

    # -- engine contract ------------------------------------------------
    def initial(self, cfg: Cfg) -> BoundedState:
        return EMPTY_BOUNDED

    def join(self, a: BoundedState, b: BoundedState) -> BoundedState:
        # Intersection: bounded only when bounded on EVERY incoming path.
        return a & b

    def transfer(self, stmt: ast.stmt, state: BoundedState) -> BoundedState:
        for call, name in call_sites(stmt):
            if _is_emit_call(call, name) and not self._bounded(
                call.args[0], state
            ):
                self._emit(
                    call.args[0],
                    "ORD511",
                    "cross-shard emit timestamp is not provably >= the "
                    "window barrier plus lookahead — use now + propagation "
                    "(or Link.reserve's arrival), or the record lands in "
                    "the receiving shard's past under some partitions",
                )
        if isinstance(stmt, ast.Assign):
            bounded = self._bounded(stmt.value, state)
            for target in stmt.targets:
                state = self._bind(target, bounded, state)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                state = self._bind(
                    stmt.target, self._bounded(stmt.value, state), state
                )
        elif isinstance(stmt, ast.AugAssign):
            if isinstance(stmt.target, ast.Name):
                if isinstance(stmt.op, ast.Add) and (
                    _is_lookahead_name(stmt.value)
                    or self._bounded(stmt.value, state)
                ):
                    state = state | {stmt.target.id}
                else:
                    state = state - {stmt.target.id}
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            state = self._bind(stmt.target, False, state)
        return state

    # -- helpers --------------------------------------------------------
    def _bind(
        self, target: ast.expr, bounded: bool, state: BoundedState
    ) -> BoundedState:
        if isinstance(target, ast.Name):
            return state | {target.id} if bounded else state - {target.id}
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                state = self._bind(element, False, state)
        return state

    def _bounded(self, expr: ast.expr, state: BoundedState) -> bool:
        if isinstance(expr, ast.Name):
            return expr.id in state
        if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Add):
            return (
                _is_lookahead_name(expr.left)
                or _is_lookahead_name(expr.right)
                or self._bounded(expr.left, state)
                or self._bounded(expr.right, state)
            )
        if isinstance(expr, ast.Call):
            callee = expr.func
            name = (
                callee.attr
                if isinstance(callee, ast.Attribute)
                else callee.id if isinstance(callee, ast.Name) else None
            )
            return name in _BOUNDED_CALLS
        return False

    def _emit(self, node: ast.AST, rule: str, message: str) -> None:
        if self.report is None:
            return
        self.report.append(
            Finding(
                path=self.ctx.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                rule=rule,
                message=message,
            )
        )


def _enclosing_function_name(
    ctx: FileContext, node: ast.AST
) -> Optional[str]:
    current = ctx.parents.get(node)
    while current is not None:
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return current.name
        current = ctx.parents.get(current)
    return None


def causality_findings(project: Project) -> List[Finding]:
    report: List[Finding] = []
    for ctx in project.files:
        if ctx.tree is None:
            continue
        # ORD511: must-dataflow per function.
        for func in ctx.functions():
            cfg = build_cfg(func)
            silent = _BoundedAnalysis(ctx, func, report=None)
            states = fixpoint(cfg, silent)
            reporter = _BoundedAnalysis(ctx, func, report=report)
            walk_block(cfg, states, reporter, lambda stmt, state: None)
        # ORD512/ORD513: syntactic walks over the whole file.
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "_program"
                and not (
                    isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                )
            ):
                report.append(
                    Finding(
                        path=ctx.path,
                        line=node.lineno,
                        col=node.col_offset,
                        rule="ORD512",
                        message=(
                            "reaching through another handle's '_program' "
                            "mutates a foreign shard's world outside the "
                            "window barrier — route the interaction through "
                            "a CrossShardEvent record instead"
                        ),
                    )
                )
            if isinstance(node, ast.Call):
                callee = node.func
                name = (
                    callee.attr
                    if isinstance(callee, ast.Attribute)
                    else callee.id if isinstance(callee, ast.Name) else None
                )
                if name != "CrossShardEvent":
                    continue
                if ctx.module == _RECORDS_MODULE:
                    continue
                enclosing = _enclosing_function_name(ctx, node)
                if enclosing in _SANCTIONED_CONSTRUCTORS:
                    continue
                report.append(
                    Finding(
                        path=ctx.path,
                        line=node.lineno,
                        col=node.col_offset,
                        rule="ORD513",
                        message=(
                            "CrossShardEvent constructed outside an "
                            "emit/from_wire function — ad-hoc records skip "
                            "the per-source seq counter and can break the "
                            "(time, src, seq) total merge order"
                        ),
                    )
                )
    return sorted(set(report))


_SCOPE = ("repro.sim", "repro.overlay")


class EmitBelowLookaheadRule(FamilyRule):
    id = "ORD511"
    scope = _SCOPE
    title = "cross-shard emits must be timestamped >= barrier + lookahead"
    rationale = (
        "The coordinator validates records against the window bound at "
        "runtime, but only for the shard layouts actually run; a bare "
        "sim.now emit is invisible at shards=1 (same-shard delivery) and "
        "explodes as ShardError the first time the two hosts land in "
        "different shards. The static bound proof covers every layout."
    )


class ForeignWorldMutationRule(FamilyRule):
    id = "ORD512"
    scope = _SCOPE
    title = "no reaching into another shard handle's program"
    rationale = (
        "handle._program is the coordinator's private line to its own "
        "shard; code that dereferences someone else's handle mutates a "
        "world mid-window with no barrier, no record and no causality "
        "check — the sharded equivalent of writing to another core's "
        "per-CPU state without an IPI."
    )


class AdHocRecordRule(FamilyRule):
    id = "ORD513"
    scope = _SCOPE
    title = "CrossShardEvent construction is reserved to emit/from_wire"
    rationale = (
        "The (time, src, seq) merge key is total only because every "
        "outbox assigns seq from its own counter and from_wire "
        "re-validates wire tuples. A record constructed elsewhere can "
        "duplicate or skip a seq and silently corrupt the merge order "
        "for some partitions."
    )


CAUSALITY_RULES: Tuple[Rule, ...] = tuple(
    rule(causality_findings)
    for rule in (
        EmitBelowLookaheadRule,
        ForeignWorldMutationRule,
        AdHocRecordRule,
    )
)
