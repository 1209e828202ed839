"""Partition-invariance taint analysis (ORD501, ORD502, ORD503).

The shard-equivalence contract — an N-shard run is byte-identical to the
1-shard run — holds only while nothing the simulation computes depends
on *how hosts were grouped into shards*. Shard slots, worker indexes,
process ids and pipe file descriptors all change with the partition (and
with the OS), so any of them flowing into the event timeline silently
breaks 1-vs-N equivalence in a way the runtime suite can only catch for
the partitions it happens to run.

This analysis reuses the flow family's CFG/worklist engine to propagate one
taint tag — *partition-variant* — forward through each function:

* **sources**: names whose segments spell a shard/worker identity
  (``shard_id``, ``worker_index``, ``shard_slot``, ...), ``pid``-named
  values, and calls to ``os.getpid``/``os.getppid``/``.fileno()``;
* **propagation**: assignment, arithmetic, tuple/collection packing,
  subscripts, conditional expressions and the transparent builtins
  (``min``/``max``/...) — taint survives all of them;
* **sinks** (one rule each):

  ``ORD501``  a tainted value becomes an event **timestamp** — the first
              argument of a scheduler call (``schedule``/``schedule_at``/...) or
              of an outbox ``emit``/``CrossShardEvent`` construction;
  ``ORD502``  a tainted value becomes a **seed** — any ``seed=`` keyword
              or an argument of ``seed``/``Random``/``default_rng``/
              ``stream`` calls (RNG stream *names* are part of the
              deterministic state too);
  ``ORD503``  a tainted value enters a cross-shard record's **payload or
              merge key** — a non-time argument of ``emit``/
              ``CrossShardEvent``, or a callback argument of a scheduler
              call (which the event carries as payload).

Like the TIME rules this is a must-style pass: untainted values never
produce noise, and unknown calls do not launder taint through (they
return untainted — a deliberate under-approximation that keeps the
in-tree false-positive budget at zero).

:mod:`repro.sim.shard.transport` is carved out via ``Rule.exempt``: it
is the one sanctioned OS-facing module, whose whole business is pids,
pipes and fds — none of which it ever hands to the simulation (the
records it moves are validated by ``CrossShardEvent.from_wire``).
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.analysis.flow.cfg import Cfg, build_cfg
from repro.analysis.flow.engine import fixpoint, walk_block
from repro.analysis.lint.core import (
    SIMULATED_SCOPE,
    FamilyRule,
    FileContext,
    Finding,
    Project,
    Rule,
)

#: Abstract state: variable name -> taint tags (only ``PARTITION`` here,
#: but kept set-valued to share the engine's join shape with rules_time).
State = Dict[str, FrozenSet[str]]

PARTITION = "partition"
EMPTY: FrozenSet[str] = frozenset()
TAINTED: FrozenSet[str] = frozenset((PARTITION,))

#: Identity-ish trailing segments: ``shard``/``worker`` followed by one
#: of these spells a partition-variant identity.
_ID_SEGMENTS = frozenset(
    ("id", "ids", "idx", "index", "indexes", "indices", "slot", "slots", "rank")
)

#: Calls that return partition/OS-variant values.
_SOURCE_CALLS = ("getpid", "getppid", "fileno")

#: Scheduler calls: arg0 is a timestamp, the rest ride in the event.
_SCHEDULER_CALLS = (
    "schedule",
    "schedule_at",
    "submit",
    "submit_multi",
)

#: Cross-shard record sinks: arg0 is the merge-key timestamp, the rest
#: are (src, seq, kind, dst, payload) — all of them merge-key or payload.
_RECORD_SINKS = ("emit", "CrossShardEvent")

#: Calls whose arguments seed deterministic randomness.
_SEED_CALLS = ("seed", "Random", "default_rng", "stream")

#: Taint-transparent builtins (same set the TIME rules use).
_TRANSPARENT_CALLS = ("min", "max", "abs", "round", "sum", "float", "int", "str")


def partition_tainted_name(name: str) -> bool:
    """True when ``name`` spells a partition-variant identity."""
    segments = [seg for seg in name.lower().strip("_").split("_") if seg]
    if "pid" in segments or "ppid" in segments:
        return True
    for left, right in zip(segments, segments[1:]):
        if left in ("shard", "worker") and right in _ID_SEGMENTS:
            return True
    return False


def _name_tags(name: str) -> FrozenSet[str]:
    return TAINTED if partition_tainted_name(name) else EMPTY


class _PartitionAnalysis:
    """Forward partition-taint propagation over one function's CFG."""

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
    def initial(self, cfg: Cfg) -> State:
        state: State = {}
        args = cfg.func.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            if partition_tainted_name(arg.arg):
                state[arg.arg] = TAINTED
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
        if isinstance(stmt, ast.Assign):
            tags = self._eval(stmt.value, state)
            for target in stmt.targets:
                self._bind(target, tags, state)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._bind(stmt.target, self._eval(stmt.value, state), state)
        elif isinstance(stmt, ast.AugAssign):
            tags = self._eval(stmt.value, state)
            if isinstance(stmt.target, ast.Name):
                tags |= state.get(stmt.target.id, EMPTY)
            self._bind(stmt.target, tags, state)
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value, state)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._eval(stmt.value, state)
        elif isinstance(stmt, ast.Assert):
            self._eval(stmt.test, state)
        elif isinstance(stmt, (ast.If, ast.While)):
            self._eval(stmt.test, state)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            tags = self._eval(stmt.iter, state)
            self._bind(stmt.target, tags, state)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._eval(item.context_expr, state)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, EMPTY, state)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._eval(stmt.exc, state)
        return state

    # -- binding --------------------------------------------------------
    def _bind(self, target: ast.expr, tags: FrozenSet[str], state: State) -> None:
        if isinstance(target, ast.Name):
            if tags or partition_tainted_name(target.id):
                state[target.id] = tags | _name_tags(target.id)
            else:
                state.pop(target.id, None)
        elif isinstance(target, (ast.Tuple, ast.List)):
            # A tainted unpack taints every element (conservative).
            for element in target.elts:
                self._bind(element, tags, state)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, tags, state)
        # Attribute/Subscript targets are not tracked.

    # -- expression evaluation ------------------------------------------
    def _eval(self, expr: ast.expr, state: State) -> FrozenSet[str]:
        if isinstance(expr, ast.Name):
            return state.get(expr.id) or _name_tags(expr.id)
        if isinstance(expr, ast.Attribute):
            self._eval(expr.value, state)
            return _name_tags(expr.attr)
        if isinstance(expr, ast.BinOp):
            return self._eval(expr.left, state) | self._eval(expr.right, state)
        if isinstance(expr, ast.UnaryOp):
            return self._eval(expr.operand, state)
        if isinstance(expr, ast.IfExp):
            self._eval(expr.test, state)
            return self._eval(expr.body, state) | self._eval(expr.orelse, state)
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, state)
        if isinstance(expr, ast.Compare):
            self._eval(expr.left, state)
            for comparator in expr.comparators:
                self._eval(comparator, state)
            return EMPTY
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            merged: FrozenSet[str] = EMPTY
            for element in expr.elts:
                merged |= self._eval(element, state)
            return merged
        if isinstance(expr, ast.Dict):
            merged = EMPTY
            for key in expr.keys:
                if key is not None:
                    merged |= self._eval(key, state)
            for value in expr.values:
                merged |= self._eval(value, state)
            return merged
        if isinstance(expr, ast.Subscript):
            # ``pair[0]`` of a tainted tuple stays tainted.
            tags = self._eval(expr.value, state)
            if isinstance(expr.slice, ast.expr):
                self._eval(expr.slice, state)
            return tags
        if isinstance(expr, ast.Starred):
            return self._eval(expr.value, state)
        if isinstance(expr, (ast.JoinedStr, ast.FormattedValue)):
            for child in ast.iter_child_nodes(expr):
                if isinstance(child, ast.expr):
                    self._eval(child, state)
            return EMPTY
        return EMPTY

    def _eval_call(self, call: ast.Call, state: State) -> FrozenSet[str]:
        callee = call.func
        name = (
            callee.attr
            if isinstance(callee, ast.Attribute)
            else callee.id if isinstance(callee, ast.Name) else None
        )
        positional = [self._eval(arg, state) for arg in call.args]
        keywords = [(kw, self._eval(kw.value, state)) for kw in call.keywords]

        # --- seed sinks (ORD502) ---------------------------------------
        for kw, tags in keywords:
            if kw.arg == "seed" and PARTITION in tags:
                self._emit(
                    kw.value,
                    "ORD502",
                    "partition-variant value flows into a seed= keyword — "
                    "seeds must be a pure function of config + global host "
                    "identity, never of the shard layout",
                )
        if name in _SEED_CALLS:
            for arg, tags in zip(call.args, positional):
                if PARTITION in tags:
                    self._emit(
                        arg,
                        "ORD502",
                        f"partition-variant value flows into '{name}' — RNG "
                        "seeds/streams are part of the deterministic state "
                        "and must not depend on the shard layout",
                    )

        # --- record sinks (ORD501 timestamp, ORD503 merge key/payload) -
        if name in _RECORD_SINKS and len(call.args) >= 3:
            for index, (arg, tags) in enumerate(zip(call.args, positional)):
                if PARTITION not in tags:
                    continue
                if index == 0:
                    self._emit(
                        arg,
                        "ORD501",
                        f"partition-variant value becomes the '{name}' "
                        "timestamp — record times are merge keys and must "
                        "be identical under every shard layout",
                    )
                else:
                    self._emit(
                        arg,
                        "ORD503",
                        f"partition-variant value enters a '{name}' "
                        "merge key / payload — the (time, src, seq) order "
                        "and record contents must not depend on the shard "
                        "layout",
                    )
            for kw, tags in keywords:
                if kw.arg != "seed" and PARTITION in tags:
                    self._emit(
                        kw.value,
                        "ORD503",
                        f"partition-variant value enters a '{name}' "
                        "merge key / payload — record contents must not "
                        "depend on the shard layout",
                    )

        # --- scheduler sinks (ORD501 time arg, ORD503 event payload) ---
        elif name in _SCHEDULER_CALLS:
            for index, (arg, tags) in enumerate(zip(call.args, positional)):
                if PARTITION not in tags:
                    continue
                if index == 0:
                    self._emit(
                        arg,
                        "ORD501",
                        f"partition-variant value becomes the '{name}' "
                        "event time — the event timeline must be identical "
                        "under every shard layout",
                    )
                else:
                    self._emit(
                        arg,
                        "ORD503",
                        f"partition-variant value rides into the event "
                        f"stream through '{name}' — event payloads must "
                        "not depend on the shard layout",
                    )

        # --- sources / propagation -------------------------------------
        if name in _SOURCE_CALLS:
            return TAINTED
        if name in _TRANSPARENT_CALLS:
            merged: FrozenSet[str] = EMPTY
            for tags in positional:
                merged |= tags
            for _kw, tags in keywords:
                merged |= tags
            return merged
        return EMPTY

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


def partition_findings(project: Project) -> List[Finding]:
    report: List[Finding] = []
    for ctx in project.files:
        if ctx.tree is None:
            continue
        for func in ctx.functions():
            cfg = build_cfg(func)
            silent = _PartitionAnalysis(ctx, func, report=None)
            states = fixpoint(cfg, silent)
            reporter = _PartitionAnalysis(ctx, func, report=report)
            walk_block(cfg, states, reporter, lambda stmt, state: None)
    return sorted(set(report))


#: The transport is the sanctioned OS-facing module: pids/pipes/fds are
#: its whole job, and nothing it computes from them enters the
#: simulation (records are re-validated by CrossShardEvent.from_wire).
_EXEMPT = ("repro.sim.shard.transport",)


class PartitionTimestampRule(FamilyRule):
    id = "ORD501"
    scope = SIMULATED_SCOPE
    exempt = _EXEMPT
    title = "shard/worker identity must not reach event timestamps"
    rationale = (
        "Cross-shard records merge in (time, src, seq) order; the 1-vs-N "
        "equivalence suite demands byte-identical traces. A timestamp "
        "skewed by a shard slot, worker index or pid reorders the merged "
        "timeline only for some partitions — the exact bug class the "
        "static pass exists to rule out."
    )


class PartitionSeedRule(FamilyRule):
    id = "ORD502"
    scope = SIMULATED_SCOPE
    exempt = _EXEMPT
    title = "shard/worker identity must not reach seeds or RNG streams"
    rationale = (
        "Every RNG in the simulation is seeded from (spec.seed, global "
        "host identity) so a host behaves identically no matter which "
        "shard simulates it. Mixing in a shard id or os.getpid() gives "
        "each partition its own random universe and quietly voids the "
        "shard-equivalence guarantee."
    )


class PartitionPayloadRule(FamilyRule):
    id = "ORD503"
    scope = SIMULATED_SCOPE
    exempt = _EXEMPT
    title = "shard/worker identity must not reach record payloads/merge keys"
    rationale = (
        "The (time, src, seq) merge key and the record payload are the "
        "entire cross-shard protocol. A worker index leaking into either "
        "makes the receiving shard observe different bytes depending on "
        "the partition — undetectable at runtime unless that exact "
        "layout is in the test matrix."
    )


PARTITION_RULES: Tuple[Rule, ...] = tuple(
    rule(partition_findings)
    for rule in (
        PartitionTimestampRule,
        PartitionSeedRule,
        PartitionPayloadRule,
    )
)
