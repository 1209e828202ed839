"""Skb ownership-transfer rules (OWN611, OWN612, OWN613).

Every skb has exactly one owner at any program point. Inside one host's
pipeline the stages *borrow* the skb as it moves through them, but two
boundaries genuinely transfer ownership:

* **out across the wire** — encoding an skb into a
  :class:`~repro.sim.shard.records.CrossShardEvent` payload
  (``encode_skb`` / ``to_wire``) relinquishes the local object; the
  remote shard will materialize its own. Touching the local skb after
  the encode means two shards now act on "the same" packet.
* **into a holding structure** — a GRO list, a defrag table, a backlog
  queue. Storing the skb *and* forwarding it leaves two owners: the
  container will replay an object the pipeline already moved on.

``OWN611``  use after relinquish: an skb passed to a wire-encode op is
            used again in the same function (dataflow on the family's
            CFG engine, must-violation discipline).
``OWN612``  retain and forward: a path stores an skb into an
            attribute/container and then returns that same skb — a
            reference survives the stage transition alongside the
            forwarded one. Path-sensitive on the same CFG dataflow:
            GRO's store-*or*-forward shape (held on one path, returned
            on the disjoint other) is legal and stays silent.
``OWN613``  shared assume: a ``decode_*``/``from_wire`` boundary
            constructor returns a pre-existing object (a cache/attribute
            fetch) instead of constructing a fresh one — the "assumed"
            skb is still owned by whatever structure it came from.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.analysis.lint.core import (
    FamilyRule,
    FileContext,
    Finding,
    Project,
    Rule,
    last_segment,
)
from repro.analysis.san.cfg import Cfg, build_cfg
from repro.analysis.san.engine import call_sites, fixpoint, walk_block

#: Abstract state for OWN611/OWN612: skb local -> ownership tokens
#: (``owned``, ``relinquished``, or ``retained@<line>`` after the skb
#: was stored into a holding structure at that line).
State = Dict[str, FrozenSet[str]]

_OWNED = frozenset(("owned",))
_RELINQUISHED = frozenset(("relinquished",))

#: Callee last-segments that serialize an skb onto the wire — the local
#: object is relinquished the moment these see it.
_RELINQUISH_CALLS = frozenset(("encode_skb", "to_wire"))

#: Names of boundary constructors that must *assume* ownership (OWN613).
_ASSUME_PREFIXES = ("decode_", "from_wire")


def _is_skb_name(name: str, annotation: Optional[ast.expr] = None) -> bool:
    if name == "skb" or name.endswith("_skb") or name.startswith("skb_"):
        return True
    if annotation is not None:
        tail = last_segment(annotation)
        if tail == "Skb":
            return True
        if isinstance(annotation, ast.Constant) and isinstance(
            annotation.value, str
        ):
            return annotation.value.split(".")[-1] == "Skb"
    return False


class _RelinquishAnalysis:
    """OWN611/OWN612 forward dataflow over skb-typed locals."""

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
            if arg.arg in ("self", "cls"):
                continue
            if _is_skb_name(arg.arg, arg.annotation):
                state[arg.arg] = _OWNED
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
            call_sites(stmt),
            key=lambda pair: (pair[0].lineno, pair[0].col_offset),
        ):
            self._apply_call(call, name, state)
        if isinstance(stmt, ast.Assign):
            self._apply_assign(stmt.targets, stmt.value, state)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._apply_assign([stmt.target], stmt.value, state)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._bind_fresh(stmt.target, state)
        elif isinstance(stmt, ast.Return) and isinstance(
            stmt.value, ast.Name
        ):
            self._apply_return(stmt, stmt.value.id, state)
        return state

    # -- transfer pieces ------------------------------------------------
    def _apply_assign(
        self, targets: List[ast.expr], value: ast.expr, state: State
    ) -> None:
        fresh = isinstance(value, ast.Call) or (
            isinstance(value, ast.Name) and state.get(value.id) == _OWNED
        )
        for target in targets:
            if isinstance(target, ast.Name):
                if fresh and _is_skb_name(target.id):
                    state[target.id] = _OWNED
                else:
                    state.pop(target.id, None)
            elif isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    self._bind_fresh(element, state)
            elif isinstance(target, (ast.Attribute, ast.Subscript)):
                # Storing the skb into a holding structure: the
                # structure owns it now; the local name only borrows.
                if isinstance(value, ast.Name) and value.id in state:
                    if state[value.id] == _RELINQUISHED:
                        self._emit(
                            target,
                            "OWN611",
                            f"skb '{value.id}' stored after being "
                            "wire-encoded — the remote shard owns this "
                            "packet now; the held copy would replay it",
                        )
                    state[value.id] = frozenset(
                        (f"retained@{target.lineno}",)
                    )

    def _bind_fresh(self, target: ast.expr, state: State) -> None:
        if isinstance(target, ast.Name):
            if _is_skb_name(target.id):
                state[target.id] = _OWNED
            else:
                state.pop(target.id, None)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind_fresh(element, state)
        elif isinstance(target, ast.Starred):
            self._bind_fresh(target.value, state)

    def _apply_call(self, call: ast.Call, name: str, state: State) -> None:
        tracked = [
            arg.id
            for arg in (*call.args, *[kw.value for kw in call.keywords])
            if isinstance(arg, ast.Name) and arg.id in state
        ]
        if name in _RELINQUISH_CALLS:
            for var in tracked:
                if state[var] == _RELINQUISHED:
                    self._emit(
                        call,
                        "OWN611",
                        f"skb '{var}' wire-encoded again via '{name}' — "
                        "it was already relinquished to another shard",
                    )
                state[var] = _RELINQUISHED
            return
        # Pipeline calls borrow; only flag when the skb is provably gone.
        for var in tracked:
            if state[var] == _RELINQUISHED:
                self._emit(
                    call,
                    "OWN611",
                    f"skb '{var}' passed to '{name}' after being "
                    "wire-encoded — the remote shard owns this packet "
                    "now; two owners would process it twice",
                )
        # Container mutators take ownership of what is handed to them.
        if name in ("append", "appendleft", "add") and isinstance(
            call.func, ast.Attribute
        ):
            for var in tracked:
                state[var] = frozenset((f"retained@{call.lineno}",))

    def _apply_return(
        self, stmt: ast.Return, name: str, state: State
    ) -> None:
        tokens = state.get(name)
        if not tokens:
            return
        if all(token.startswith("retained@") for token in tokens):
            store_line = min(
                int(token.split("@", 1)[1]) for token in tokens
            )
            self._emit(
                stmt,
                "OWN612",
                f"'{self.func.name}' returns skb '{name}' it retained "
                f"at line {store_line} — a reference survives the "
                "stage transition, so the packet has two owners",
            )
        elif tokens == _RELINQUISHED:
            self._emit(
                stmt,
                "OWN611",
                f"skb '{name}' returned after being wire-encoded — "
                "the remote shard owns this packet now",
            )
        # A return ends the path; the name carries nothing onward.
        state.pop(name, None)

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


def _own_nodes(
    func: "ast.FunctionDef | ast.AsyncFunctionDef",
) -> Iterator[ast.AST]:
    """Walk ``func``'s own body — nested defs/lambdas are other scopes."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(
            node,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef),
        ):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _assume_findings(
    ctx: FileContext,
    func: "ast.FunctionDef | ast.AsyncFunctionDef",
    report: List[Finding],
) -> None:
    """OWN613: a decode/from_wire boundary must construct, not share."""
    if not any(
        func.name.startswith(prefix) or func.name == prefix.rstrip("_")
        for prefix in _ASSUME_PREFIXES
    ):
        return
    # Names bound from a fetch (attribute/subscript load) — returning
    # one of these shares an object some structure still owns. Collected
    # in a first pass: the tree walk is not in source order.
    fetched: Set[str] = set()
    for node in _own_nodes(func):
        if isinstance(node, ast.Assign) and isinstance(
            node.value, (ast.Attribute, ast.Subscript)
        ):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    fetched.add(target.id)
    for node in _own_nodes(func):
        if isinstance(node, ast.Return) and node.value is not None:
            value = node.value
            shared = isinstance(value, (ast.Attribute, ast.Subscript)) or (
                isinstance(value, ast.Name) and value.id in fetched
            )
            if shared:
                report.append(
                    Finding(
                        path=ctx.path,
                        line=value.lineno,
                        col=value.col_offset,
                        rule="OWN613",
                        message=(
                            f"boundary constructor '{func.name}' returns "
                            "a pre-existing object instead of "
                            "constructing a fresh one — assuming "
                            "ownership from the wire requires a new "
                            "instance, not a shared reference"
                        ),
                    )
                )


def skbown_findings(project: Project) -> List[Finding]:
    report: List[Finding] = []
    for ctx in project.files:
        if ctx.tree is None:
            continue
        for func in ctx.functions():
            cfg = build_cfg(func)
            silent = _RelinquishAnalysis(ctx, func, report=None)
            states = fixpoint(cfg, silent)
            reporter = _RelinquishAnalysis(ctx, func, report=report)
            walk_block(cfg, states, reporter, lambda stmt, state: None)
            _assume_findings(ctx, func, report)
    return sorted(set(report))


class UseAfterRelinquishRule(FamilyRule):
    id = "OWN611"
    title = "no use of an skb after it was wire-encoded"
    rationale = (
        "encode_skb flattens the packet into a CrossShardEvent payload; "
        "from that point the receiving shard's decode_skb owns the "
        "packet. A sender that keeps mutating its local copy diverges "
        "from what actually crossed the wire — the shard-equivalence "
        "suite can only catch the symptom, not the site."
    )


class RetainAndForwardRule(FamilyRule):
    id = "OWN612"
    title = "a stage must not retain an skb it forwards"
    rationale = (
        "GRO lists, defrag tables and backlogs take ownership of what "
        "is appended to them; returning the same skb hands a second "
        "owner to the next stage. The held copy later replays a packet "
        "the pipeline already delivered — double-counted against the "
        "conservation invariant."
    )


class SharedAssumeRule(FamilyRule):
    id = "OWN613"
    title = "decode/from_wire must construct a fresh object"
    rationale = (
        "The wire is a copy boundary: from_wire/decode_skb assume "
        "ownership by building a new instance from primitives. "
        "Returning a cached or shared object couples two shards through "
        "mutable state the barrier protocol knows nothing about."
    )


SKBOWN_RULES: Tuple[Rule, ...] = tuple(
    rule(skbown_findings)
    for rule in (
        UseAfterRelinquishRule,
        RetainAndForwardRule,
        SharedAssumeRule,
    )
)
