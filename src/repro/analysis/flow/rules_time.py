"""Time-unit taint analysis (TIME501, TIME502).

The simulator's clock is microseconds of *simulated* time
(:mod:`repro.sim.clock` defines the ``NS``/``US``/``MS``/``SEC``
conversion factors; every cost in :mod:`repro.kernel.costs` is µs), but
Python hands out wall-clock seconds from ``time.time()`` with the same
``float`` type. This analysis gives the floats back their units:

* a **unit tag** (``ns`` / ``us`` / ``ms`` / ``s``) inferred from the
  annotation convention (``_ns`` / ``_us`` / ``_ms`` / ``_sec`` name
  suffixes — the same convention ``sim/clock.py`` and
  ``kernel/costs.py`` already follow), from the clock conversion
  helpers (``us_to_seconds`` / ``seconds_to_us``), and from the
  simulator's ``.now`` (µs by definition);
* an orthogonal **wall-clock taint** seeded by ``time.time()`` /
  ``time.monotonic()`` / ``time.perf_counter()``.

Rules:

``TIME501``  ``+``/``-`` between values whose inferred units are
             definitely different (µs + ns, seconds - µs, …);
``TIME502``  a wall-clock-tainted value flows into the DES scheduler
             (``schedule`` / ``schedule_at`` / ``submit`` /
             ``submit_multi``) — wall time must never steer simulated
             time.

Multiplication and division *clear* unit tags (multiplying by a
conversion factor such as ``clock.MS`` legitimately changes the unit)
but propagate wall taint. TIME501 only fires when **both** operands have
known, non-overlapping unit sets — a must-violation, so untagged values
never produce noise.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.analysis.flow.cfg import Cfg, build_cfg
from repro.analysis.flow.engine import fixpoint, walk_block
from repro.analysis.lint.core import FileContext, Finding, Project, Rule

#: Abstract state: variable name -> set of unit/taint tags.
State = Dict[str, FrozenSet[str]]

WALL = "wall"
EMPTY: FrozenSet[str] = frozenset()

#: Name-suffix → unit tag (checked longest-first).
_SUFFIX_UNITS: Tuple[Tuple[str, str], ...] = (
    ("_nsec", "ns"),
    ("_usec", "us"),
    ("_msec", "ms"),
    ("_seconds", "s"),
    ("_secs", "s"),
    ("_sec", "s"),
    ("_ns", "ns"),
    ("_us", "us"),
    ("_ms", "ms"),
)

#: Calls that return wall-clock seconds.
_WALL_SOURCES = ("time", "monotonic", "perf_counter", "process_time")

#: Clock conversion helpers (from repro.sim.clock) and their result unit.
_CONVERSIONS = {"us_to_seconds": "s", "seconds_to_us": "us"}

#: Unit-preserving builtins: result carries the union of argument units.
_TRANSPARENT_CALLS = ("min", "max", "abs", "round", "sum", "float", "int")

#: Scheduler entry points that must never see wall time (TIME502).
_SCHEDULER_CALLS = (
    "schedule",
    "schedule_at",
    "submit",
    "submit_multi",
)


def suffix_unit(name: str) -> Optional[str]:
    """Infer a unit tag from the ``_us``-style naming convention."""
    if name.isupper():
        return None  # NS/US/MS/SEC are conversion *factors*, not times
    lowered = name.lower()
    for suffix, unit in _SUFFIX_UNITS:
        if lowered.endswith(suffix):
            return unit
    return None


@dataclass(frozen=True)
class _RawFinding:
    path: str
    line: int
    col: int
    rule: str
    message: str


class _UnitAnalysis:
    """Forward taint/unit propagation over one function's CFG."""

    def __init__(
        self,
        ctx: FileContext,
        func: "ast.FunctionDef | ast.AsyncFunctionDef",
        report: Optional[List[_RawFinding]] = None,
    ) -> None:
        self.ctx = ctx
        self.func = func
        self.report = report

    # -- engine contract ------------------------------------------------
    def initial(self, cfg: Cfg) -> State:
        state: State = {}
        args = cfg.func.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            unit = suffix_unit(arg.arg)
            if unit is not None:
                state[arg.arg] = frozenset((unit,))
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
            target_tags = self._target_tags(stmt.target, state)
            value_tags = self._eval(stmt.value, state)
            if isinstance(stmt.op, (ast.Add, ast.Sub)):
                self._check_mix(stmt, target_tags, value_tags)
                merged = target_tags | value_tags
            else:
                merged = (target_tags | value_tags) & frozenset((WALL,))
            self._bind(stmt.target, merged, state)
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
            self._eval(stmt.iter, state)
            self._bind(stmt.target, EMPTY, state)
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
            if tags:
                state[target.id] = tags
            else:
                unit = suffix_unit(target.id)
                if unit is not None:
                    state[target.id] = frozenset((unit,))
                else:
                    state.pop(target.id, None)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(element, EMPTY, state)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, EMPTY, state)
        # Attribute/Subscript targets are not tracked.

    def _target_tags(self, target: ast.expr, state: State) -> FrozenSet[str]:
        if isinstance(target, ast.Name):
            return state.get(target.id) or _suffix_tags(target.id)
        if isinstance(target, ast.Attribute):
            return _suffix_tags(target.attr)
        return EMPTY

    # -- expression evaluation ------------------------------------------
    def _eval(self, expr: ast.expr, state: State) -> FrozenSet[str]:
        if isinstance(expr, ast.Name):
            return state.get(expr.id) or _suffix_tags(expr.id)
        if isinstance(expr, ast.Attribute):
            self._eval(expr.value, state)
            if expr.attr == "now":
                return frozenset(("us",))  # Simulator.now is µs sim time
            return _suffix_tags(expr.attr)
        if isinstance(expr, ast.BinOp):
            left = self._eval(expr.left, state)
            right = self._eval(expr.right, state)
            if isinstance(expr.op, (ast.Add, ast.Sub)):
                self._check_mix(expr, left, right)
                return left | right
            # Mult/Div/etc: units change (conversion), taint survives.
            return (left | right) & frozenset((WALL,))
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
            for element in expr.elts:
                self._eval(element, state)
            return EMPTY
        if isinstance(expr, ast.Dict):
            for key in expr.keys:
                if key is not None:
                    self._eval(key, state)
            for value in expr.values:
                self._eval(value, state)
            return EMPTY
        if isinstance(expr, ast.Subscript):
            self._eval(expr.value, state)
            return EMPTY
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
        arg_tags = [
            self._eval(arg, state)
            for arg in (*call.args, *[kw.value for kw in call.keywords])
        ]
        if name in _SCHEDULER_CALLS:
            for arg, tags in zip(
                (*call.args, *[kw.value for kw in call.keywords]), arg_tags
            ):
                if WALL in tags:
                    self._emit(
                        arg,
                        "TIME502",
                        f"wall-clock-tainted value flows into scheduler call "
                        f"'{name}' — the DES clock is simulated microseconds "
                        "and must never be steered by host time",
                    )
            return EMPTY
        if name in _WALL_SOURCES and isinstance(callee, ast.Attribute):
            base = callee.value
            if isinstance(base, ast.Name) and base.id == "time":
                return frozenset(("s", WALL))
        if name in _CONVERSIONS:
            wall = frozenset(
                tag for tags in arg_tags for tag in tags if tag == WALL
            )
            return frozenset((_CONVERSIONS[name],)) | wall
        if name in _TRANSPARENT_CALLS:
            merged: FrozenSet[str] = EMPTY
            for tags in arg_tags:
                merged |= tags
            return merged
        return EMPTY

    # -- checks ---------------------------------------------------------
    def _check_mix(
        self, node: ast.AST, left: FrozenSet[str], right: FrozenSet[str]
    ) -> None:
        left_units = left - frozenset((WALL,))
        right_units = right - frozenset((WALL,))
        if left_units and right_units and not (left_units & right_units):
            self._emit(
                node,
                "TIME501",
                "mixed-unit arithmetic: "
                f"{'/'.join(sorted(left_units))} combined with "
                f"{'/'.join(sorted(right_units))} — convert via the "
                "repro.sim.clock factors first",
            )

    def _emit(self, node: ast.AST, rule: str, message: str) -> None:
        if self.report is None:
            return
        self.report.append(
            _RawFinding(
                path=self.ctx.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                rule=rule,
                message=message,
            )
        )


def _suffix_tags(name: str) -> FrozenSet[str]:
    unit = suffix_unit(name)
    return frozenset((unit,)) if unit is not None else EMPTY


#: Per-project memo so both TIME rules run the analysis once.
#: Entries hold the project itself, so its id cannot be reused by a
#: later project while the entry is cached.
_FINDINGS_CACHE: Dict[int, Tuple[Project, List[_RawFinding]]] = {}


def unit_findings(project: Project) -> List[_RawFinding]:
    key = id(project)
    cached = _FINDINGS_CACHE.get(key)
    if cached is not None:
        return cached[1]
    report: List[_RawFinding] = []
    for ctx in project.files:
        if ctx.tree is None:
            continue
        for func in ctx.functions():
            cfg = build_cfg(func)
            silent = _UnitAnalysis(ctx, func, report=None)
            states = fixpoint(cfg, silent)
            reporter = _UnitAnalysis(ctx, func, report=report)
            walk_block(cfg, states, reporter, lambda stmt, state: None)
    unique = sorted(
        set(report), key=lambda f: (f.path, f.line, f.col, f.rule, f.message)
    )
    _FINDINGS_CACHE.clear()
    _FINDINGS_CACHE[key] = (project, unique)
    return unique


class _TimeRuleBase(Rule):
    scope = None

    def check_project(self, project: Project) -> Iterator[Finding]:
        by_path = {ctx.path: ctx for ctx in project.files}
        for raw in unit_findings(project):
            if raw.rule != self.id:
                continue
            ctx = by_path.get(raw.path)
            if ctx is not None and not self.applies_to(ctx.module):
                continue
            yield Finding(
                path=raw.path,
                line=raw.line,
                col=raw.col,
                rule=raw.rule,
                message=raw.message,
            )


class MixedUnitArithmeticRule(_TimeRuleBase):
    id = "TIME501"
    title = "no arithmetic across different time units"
    rationale = (
        "Every cost table and clock in the simulator is µs; sim/clock.py "
        "exists precisely so ns/ms/s values are converted before use. "
        "Adding a nanosecond cost to a microsecond timestamp silently "
        "mis-scales results by 10^3 — the classic units bug the Falcon "
        "cost model cannot survive."
    )


class WallTimeIntoSchedulerRule(_TimeRuleBase):
    id = "TIME502"
    title = "wall-clock time must not reach the DES scheduler"
    rationale = (
        "Determinism requires the event timeline to be a pure function of "
        "config + seed. A time.time()-derived value flowing into "
        "schedule()/submit() makes runs unrepeatable in the worst possible "
        "way: nondeterministic event ordering."
    )


TIME_RULES: Tuple[Rule, ...] = (
    MixedUnitArithmeticRule(),
    WallTimeIntoSchedulerRule(),
)
