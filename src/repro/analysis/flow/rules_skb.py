"""Skb typestate analysis (FLOW401–FLOW404).

Tracks :class:`~repro.kernel.skb.Skb`-valued locals through the packet
pipeline using the derived :mod:`stage order spec
<repro.analysis.flow.stagespec>`: every call that the spec recognises
(a stage step, a backlog enqueue, socket delivery, a free/drop) moves
the variable's abstract position forward. The analysis is:

* **path-sensitive** — a worklist fixpoint over the function's CFG with
  set-union join, so branches and loops are handled;
* **interprocedural** — each analyzed function gets a *summary* (the
  exit typestate of its skb parameters), iterated to a project-wide
  fixpoint, so a helper that delivers a packet poisons its callers'
  state at the call site;
* **must-violation only** — a finding is reported only when *every*
  abstract position reaching the call is illegal for it, which keeps
  the pass quiet on the (clean) in-tree sources.

Rules:

``FLOW401``  out-of-order stage call (packet moves backwards in the
             derived stage order);
``FLOW402``  packet re-enters the pipeline after ``SocketDeliver``;
``FLOW403``  double free / use after free;
``FLOW404``  drop (``kfree_skb``-style op) with no drop-counter
             increment in the enclosing function.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.analysis.flow.cfg import Cfg, build_cfg
from repro.analysis.flow.engine import call_sites, fixpoint, walk_block
from repro.analysis.flow.stagespec import (
    KIND_ALLOC,
    KIND_DELIVER,
    KIND_DROP,
    KIND_FREE,
    StageOrderSpec,
    stage_order_spec,
)
from repro.analysis.lint.core import (
    FamilyRule,
    FileContext,
    Finding,
    Project,
    Rule,
)

#: Abstract state: variable name -> set of possible pipeline ranks.
State = Dict[str, FrozenSet[int]]

#: Rounds of project-wide summary iteration (call chains deeper than
#: this many skb-handoff levels degrade to "no summary", never to a
#: false finding).
_SUMMARY_ROUNDS = 5

#: Attribute-name fragments that count as drop accounting (FLOW404).
_COUNTER_FRAGMENTS = ("drop", "count", "stat")

#: Calls that count as drop accounting (the monitor / counters APIs).
_COUNTER_CALLS = ("on_terminal", "record")


def _is_skb_name(name: str, annotation: Optional[ast.expr] = None) -> bool:
    if name == "skb" or name.endswith("_skb") or name.startswith("skb_"):
        return True
    if annotation is not None:
        tail = annotation
        if isinstance(tail, ast.Attribute):
            return tail.attr == "Skb"
        if isinstance(tail, ast.Name):
            return tail.id == "Skb"
        if isinstance(tail, ast.Constant) and isinstance(tail.value, str):
            return tail.value.split(".")[-1] == "Skb"
    return False


@dataclass
class _Summary:
    """Exit typestate of one function's skb parameters."""

    #: param name -> exit position set (absent = untouched by any op).
    exits: Dict[str, FrozenSet[int]]


class _FunctionAnalysis:
    """The per-function forward dataflow (engine client)."""

    def __init__(
        self,
        ctx: FileContext,
        func: "ast.FunctionDef | ast.AsyncFunctionDef",
        spec: StageOrderSpec,
        summaries: Dict[str, List[_Summary]],
        report: Optional[List[Finding]] = None,
    ) -> None:
        self.ctx = ctx
        self.func = func
        self.spec = spec
        self.summaries = summaries
        self.report = report
        self.unknown = frozenset(
            rank
            for rank in spec.stage_rank.values()
            if rank < spec.delivered_rank
        )
        self.delivered = frozenset((spec.delivered_rank,))
        self.freed = frozenset((spec.freed_rank,))
        self._has_drop_counter: Optional[bool] = None

    # -- engine contract ------------------------------------------------
    def initial(self, cfg: Cfg) -> State:
        state: State = {}
        args = cfg.func.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            if arg.arg in ("self", "cls"):
                continue
            if _is_skb_name(arg.arg, arg.annotation):
                state[arg.arg] = self.unknown
        return state

    def join(self, a: State, b: State) -> State:
        if a == b:
            return a
        out = dict(a)
        for key, value in b.items():
            existing = out.get(key)
            out[key] = value if existing is None else existing | value
        return out

    def transfer(self, stmt: ast.stmt, state: State) -> State:
        state = dict(state)
        for call, name in sorted(
            call_sites(stmt), key=lambda pair: (pair[0].lineno, pair[0].col_offset)
        ):
            self._apply_call(call, name, state)
        if isinstance(stmt, ast.Assign):
            self._apply_assign(stmt.targets, stmt.value, state)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._apply_assign([stmt.target], stmt.value, state)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._bind_fresh(stmt.target, state)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if item.optional_vars is not None:
                    self._bind_fresh(item.optional_vars, state)
        return state

    # -- transfer pieces ------------------------------------------------
    def _apply_assign(
        self, targets: List[ast.expr], value: ast.expr, state: State
    ) -> None:
        new: Optional[FrozenSet[int]] = None
        if isinstance(value, ast.Call):
            callee = value.func
            tail = callee.attr if isinstance(callee, ast.Attribute) else (
                callee.id if isinstance(callee, ast.Name) else None
            )
            op = self.spec.ops.get(tail) if tail else None
            if op is not None and op.kind == KIND_ALLOC:
                new = frozenset(op.ranks)
        elif isinstance(value, ast.Name) and value.id in state:
            new = state[value.id]
        for target in targets:
            if isinstance(target, ast.Name):
                if new is not None:
                    state[target.id] = new
                elif _is_skb_name(target.id):
                    state[target.id] = self.unknown
                else:
                    state.pop(target.id, None)
            elif isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    self._bind_fresh(element, state)

    def _bind_fresh(self, target: ast.expr, state: State) -> None:
        """A name (re)bound from an opaque source: skb-like names go to
        the unknown position, anything else stops being tracked."""
        if isinstance(target, ast.Name):
            if _is_skb_name(target.id):
                state[target.id] = self.unknown
            else:
                state.pop(target.id, None)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind_fresh(element, state)
        elif isinstance(target, ast.Starred):
            self._bind_fresh(target.value, state)

    def _tracked_args(self, call: ast.Call, state: State) -> List[str]:
        names: List[str] = []
        for arg in (*call.args, *[kw.value for kw in call.keywords]):
            if isinstance(arg, ast.Name) and arg.id in state:
                names.append(arg.id)
        return names

    def _apply_call(self, call: ast.Call, name: str, state: State) -> None:
        op = self.spec.ops.get(name)
        if op is None:
            self._apply_summary(call, name, state)
            return
        if op.kind == KIND_ALLOC:
            return  # handled at the assignment that binds the result
        for var in self._tracked_args(call, state):
            state[var] = self._step_var(call, name, op.kind, op.ranks, var, state[var])

    def _apply_summary(self, call: ast.Call, name: str, state: State) -> None:
        candidates = self.summaries.get(name)
        if not candidates:
            return
        exits: List[FrozenSet[int]] = []
        for summary in candidates:
            exits.extend(summary.exits.values())
        if not exits:
            return
        merged = frozenset().union(*exits)
        for var in self._tracked_args(call, state):
            current = state[var]
            if current == self.freed or current == self.delivered:
                # Passing a finished packet into a pipeline helper is the
                # caller's bug; report it as a use of the dead object.
                rule = "FLOW403" if current == self.freed else "FLOW402"
                verb = (
                    "used after free"
                    if rule == "FLOW403"
                    else "handed back to the pipeline after SocketDeliver"
                )
                self._emit(
                    call,
                    rule,
                    f"skb '{var}' {verb} via call to '{name}'",
                )
            state[var] = merged

    def _step_var(
        self,
        call: ast.Call,
        name: str,
        kind: str,
        ranks: FrozenSet[int],
        var: str,
        positions: FrozenSet[int],
    ) -> FrozenSet[int]:
        spec = self.spec
        if positions == self.freed:
            self._emit(
                call,
                "FLOW403",
                f"skb '{var}' {'double-freed' if kind in (KIND_FREE, KIND_DROP) else 'used after free'} "
                f"by '{name}'",
            )
            return self.freed
        if positions == self.delivered:
            if kind in (KIND_FREE, KIND_DROP):
                return self.freed  # normal end of life after delivery
            self._emit(
                call,
                "FLOW402",
                f"skb '{var}' re-enters the pipeline via '{name}' after "
                "SocketDeliver — delivery is terminal in the stage graph",
            )
            return self.delivered
        if kind == KIND_DELIVER:
            return self.delivered
        if kind == KIND_FREE:
            return self.freed
        if kind == KIND_DROP:
            if not self._drop_is_counted():
                self._emit(
                    call,
                    "FLOW404",
                    f"skb '{var}' dropped via '{name}' but "
                    f"'{self.func.name}' never increments a drop counter "
                    "(the conservation invariants need every loss accounted)",
                )
            return self.freed
        # step / enqueue / hardirq: forward-motion check.
        ceiling = max(ranks)
        if positions and all(position > ceiling for position in positions):
            came_from = ", ".join(
                sorted(spec.rank_label(position) for position in positions)
            )
            goes_to = ", ".join(sorted(spec.rank_label(rank) for rank in ranks))
            self._emit(
                call,
                "FLOW401",
                f"out-of-order stage call: skb '{var}' already past "
                f"stage(s) {came_from} is handed to '{name}' "
                f"(stage {goes_to}) — the derived stage order only moves "
                "forward",
            )
            return frozenset(ranks)
        floor = min(positions) if positions else 0
        refined = frozenset(rank for rank in ranks if rank >= floor)
        return refined or frozenset(ranks)

    def _drop_is_counted(self) -> bool:
        if self._has_drop_counter is None:
            self._has_drop_counter = _function_counts_drops(self.func)
        return self._has_drop_counter

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


def _function_counts_drops(func: "ast.FunctionDef | ast.AsyncFunctionDef") -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
            target = node.target
            label = (
                target.attr
                if isinstance(target, ast.Attribute)
                else target.id if isinstance(target, ast.Name) else ""
            )
            if any(fragment in label.lower() for fragment in _COUNTER_FRAGMENTS):
                return True
        if isinstance(node, ast.Call):
            callee = node.func
            tail = callee.attr if isinstance(callee, ast.Attribute) else (
                callee.id if isinstance(callee, ast.Name) else None
            )
            if tail in _COUNTER_CALLS:
                return True
    return False


# ----------------------------------------------------------------------
# Project-level driver (shared by the four FLOW rules)
# ----------------------------------------------------------------------
def _project_functions(
    project: Project,
) -> List[Tuple[FileContext, "ast.FunctionDef | ast.AsyncFunctionDef"]]:
    pairs = []
    for ctx in project.files:
        if ctx.tree is None:
            continue
        for func in ctx.functions():
            pairs.append((ctx, func))
    return pairs


def _compute_summaries(
    pairs: List[Tuple[FileContext, "ast.FunctionDef | ast.AsyncFunctionDef"]],
    spec: StageOrderSpec,
) -> Dict[str, List[_Summary]]:
    summaries: Dict[str, List[_Summary]] = {}
    for _round in range(_SUMMARY_ROUNDS):
        next_summaries: Dict[str, List[_Summary]] = {}
        for ctx, func in pairs:
            analysis = _FunctionAnalysis(ctx, func, spec, summaries, report=None)
            cfg = build_cfg(func)
            seeded = analysis.initial(cfg)
            if not seeded:
                continue
            states = fixpoint(cfg, analysis)
            exit_state = states.get(cfg.exit, {})
            exits = {
                name: exit_state[name]
                for name in seeded
                if name in exit_state and exit_state[name] != seeded[name]
            }
            if exits:
                next_summaries.setdefault(func.name, []).append(_Summary(exits))
        if _stable(summaries, next_summaries):
            return next_summaries
        summaries = next_summaries
    return summaries


def _stable(
    old: Dict[str, List[_Summary]], new: Dict[str, List[_Summary]]
) -> bool:
    if old.keys() != new.keys():
        return False
    for key in old:
        if [summary.exits for summary in old[key]] != [
            summary.exits for summary in new[key]
        ]:
            return False
    return True


def typestate_findings(project: Project) -> List[Finding]:
    spec = stage_order_spec()
    pairs = _project_functions(project)
    summaries = _compute_summaries(pairs, spec)
    report: List[Finding] = []
    for ctx, func in pairs:
        cfg = build_cfg(func)
        # Fixpoint runs silent; only the post-convergence walk reports,
        # so a partially-propagated state can never leave a phantom
        # finding behind (the must-violation guarantee depends on this).
        silent = _FunctionAnalysis(ctx, func, spec, summaries, report=None)
        states = fixpoint(cfg, silent)
        reporter = _FunctionAnalysis(ctx, func, spec, summaries, report=report)
        walk_block(cfg, states, reporter, lambda stmt, state: None)
    # A statement may sit in several blocks' views (loop headers); dedupe.
    return sorted(set(report))


class StageOrderRule(FamilyRule):
    id = "FLOW401"
    title = "skb stage calls must follow the derived stage order"
    rationale = (
        "The paper's correctness argument (Algorithm 1, Figs. 3-6) rests on "
        "packets traversing the softirq stage graph in a fixed order; a call "
        "that moves an skb backwards models a packet teleporting upstream. "
        "The legal order is derived from the Stage/Transition objects in "
        "kernel/stages.py, not hand-coded."
    )


class ReEnqueueAfterDeliverRule(FamilyRule):
    id = "FLOW402"
    title = "no pipeline re-entry after SocketDeliver"
    rationale = (
        "SocketDeliver is the terminal transition of the stage graph; "
        "re-enqueueing a delivered skb double-counts it against the "
        "packet-conservation invariant the validation monitors enforce."
    )


class UseAfterFreeRule(FamilyRule):
    id = "FLOW403"
    title = "no double free / use after free of an skb"
    rationale = (
        "A freed skb that re-enters the pipeline corrupts the conservation "
        "accounting exactly like a kernel use-after-free corrupts memory — "
        "and a double free hides a real packet loss."
    )


class UncountedDropRule(FamilyRule):
    id = "FLOW404"
    title = "every skb drop must increment a counter"
    rationale = (
        "The runtime invariant monitors prove exact packet conservation; a "
        "drop with no counter increment makes that audit impossible to "
        "reconcile (injected != delivered + sum(drops))."
    )


SKB_RULES: Tuple[Rule, ...] = tuple(
    rule(typestate_findings)
    for rule in (
        StageOrderRule,
        ReEnqueueAfterDeliverRule,
        UseAfterFreeRule,
        UncountedDropRule,
    )
)
