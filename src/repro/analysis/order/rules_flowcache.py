"""Flowcache ordering-typestate rules (ORD521, ORD522, ORD523).

The per-flow fast-path cache stays safe under parallel delivery because
of one gate: a flow may be served from the table only while no packet of
that flow is still in flight through the slow path (the *slow-inflight
ledger*), and the table may be (re)populated only by the delivery
confirmation that retires the ledger entry. Every stale-hit and
reordering bug the ONCache paper worries about is a bypass of that gate,
so the gate is enforced as a typestate over the fastpath call surface:

``ORD521``  inserting into a flow table from anywhere other than the
            ledger-gated populate path (``FlowTable.insert`` itself, the
            miss-side ``hit_or_populate``, or the slow-path delivery
            confirmation ``delivered``). An eager insert at lookup time
            re-opens the classic stale-window race.
``ORD522``  a flow-table lookup method that serves hits (membership test
            on the entries map + ``hits`` accounting) without ever
            consulting the slow-inflight ledger — the gate check itself
            is missing, so a cached flow can overtake its own slow-path
            predecessor.
``ORD523``  a container remove/migrate/churn path that never reaches an
            ``invalidate_*`` routine. Stale table entries then keep
            steering frames to an IP whose veth is gone (checked as a
            name-level reachability question over the project call
            graph, batch-dispatch arguments included).

These mirror the runtime checks in ``repro.validate`` (the fastpath
delivery ledger) and the differential REGIMES suite, but fire at review
time instead of under a lucky workload.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.flow.rules_time import _RawFinding
from repro.analysis.lint.core import (
    FileContext,
    Finding,
    Project,
    Rule,
    last_segment,
)

#: Receiver attribute names that denote a flow table even without a
#: ``*table*`` spelling (FlowCache holds one per direction).
_TABLE_ATTRS = frozenset(("ingress", "egress"))

#: Functions allowed to call ``<table>.insert`` — the gated populate
#: path. ``insert`` itself may recurse (eviction), ``hit_or_populate``
#: is the miss-side populate, ``delivered`` is the slow-path delivery
#: confirmation that retires the ledger entry first.
_SANCTIONED_INSERTERS = frozenset(("insert", "hit_or_populate", "delivered"))

#: Calls that dispatch their callable arguments (mirrors the RACE301
#: collector) — reachability must follow scheduled work too.
_DISPATCH_CALLS = frozenset(
    (
        "schedule",
        "schedule_at",
        "submit",
        "submit_multi",
    )
)


def _is_table_receiver(ctx: FileContext, call: ast.Call) -> bool:
    """``<receiver>.insert(...)`` where the receiver is a flow table."""
    callee = call.func
    if not isinstance(callee, ast.Attribute):
        return False
    receiver = callee.value
    if isinstance(receiver, ast.Name) and receiver.id == "self":
        enclosing = ctx.enclosing_class(call)
        return enclosing is not None and "Table" in enclosing.name
    name = last_segment(receiver)
    if name is None:
        return False
    return name in _TABLE_ATTRS or "table" in name.lower()


def _enclosing_function(
    ctx: FileContext, node: ast.AST
) -> Optional["ast.FunctionDef | ast.AsyncFunctionDef"]:
    current = ctx.parents.get(node)
    while current is not None:
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return current
        current = ctx.parents.get(current)
    return None


def _name_mentions(name: str, needle: str) -> bool:
    return needle in name.lower()


def _segments(name: str) -> List[str]:
    return name.lower().strip("_").split("_")


def _is_removal_entry(name: str) -> bool:
    """Container teardown/migration entry points for ORD523."""
    segs = _segments(name)
    if any(seg in ("churn", "migrate", "migration") for seg in segs):
        return True
    for first, second in zip(segs, segs[1:]):
        if first == "remove" and second == "container":
            return True
    return False


def _mentions_inflight(func: "ast.FunctionDef | ast.AsyncFunctionDef") -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.Attribute) and _name_mentions(
            node.attr, "inflight"
        ):
            return True
        if isinstance(node, ast.Name) and _name_mentions(node.id, "inflight"):
            return True
    return False


def _takes_segments(func: "ast.FunctionDef | ast.AsyncFunctionDef") -> bool:
    """A receive-side lookup: it is handed the packet's wire segments.

    Only the receive path races the slow path (several packets of one
    flow can be in flight through softirq at once); the transmit side is
    serialized per flow by the sender, so ``hit_or_populate`` carries no
    segment count and needs no ledger gate.
    """
    params = list(func.args.posonlyargs) + list(func.args.args) + list(
        func.args.kwonlyargs
    )
    return any("seg" in param.arg.lower() for param in params)


def _serves_hits(
    func: "ast.FunctionDef | ast.AsyncFunctionDef",
) -> Optional[ast.AugAssign]:
    """The ``self.hits += 1`` node of a hit-serving lookup, if any.

    A lookup "serves hits" when it both tests membership in the entries
    map (``key in self._entries``) and bumps the hit counter.
    """
    membership = False
    hit_bump: Optional[ast.AugAssign] = None
    for node in ast.walk(func):
        if isinstance(node, ast.Compare) and any(
            isinstance(op, (ast.In, ast.NotIn)) for op in node.ops
        ):
            for comparator in node.comparators:
                name = last_segment(comparator)
                if name is not None and _name_mentions(name, "entries"):
                    membership = True
        if (
            isinstance(node, ast.AugAssign)
            and isinstance(node.target, ast.Attribute)
            and node.target.attr == "hits"
        ):
            hit_bump = node
    return hit_bump if membership and hit_bump is not None else None


def _mentions_inval_token(
    func: "ast.FunctionDef | ast.AsyncFunctionDef",
) -> bool:
    """Any ``*inval*`` name/attribute in the body.

    Covers both a direct ``invalidate_ip(...)`` call and the cluster
    churn path, which invalidates *remotely* by emitting a
    ``RECORD_INVAL`` record for the receiving shard to apply.
    """
    for node in ast.walk(func):
        if isinstance(node, ast.Attribute) and "inval" in node.attr.lower():
            return True
        if isinstance(node, ast.Name) and "inval" in node.id.lower():
            return True
    return False


def _called_names(
    func: "ast.FunctionDef | ast.AsyncFunctionDef",
) -> Set[str]:
    """Callee last-segments, plus callable args of dispatch calls."""
    names: Set[str] = set()
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        callee = last_segment(node.func)
        if callee is None:
            continue
        names.add(callee)
        if callee in _DISPATCH_CALLS:
            for arg in node.args:
                arg_name = last_segment(arg)
                if arg_name is not None:
                    names.add(arg_name)
            for keyword in node.keywords:
                arg_name = last_segment(keyword.value)
                if arg_name is not None:
                    names.add(arg_name)
    return names


#: Per-project memo so all three ORD52x rules walk once.
#: Entries hold the project itself, so its id cannot be reused by a
#: later project while the entry is cached.
_FINDINGS_CACHE: Dict[int, Tuple[Project, List[_RawFinding]]] = {}


def flowcache_findings(project: Project) -> List[_RawFinding]:
    key = id(project)
    cached = _FINDINGS_CACHE.get(key)
    if cached is not None:
        return cached[1]
    report: List[_RawFinding] = []

    # Name-level call graph for ORD523 reachability.
    defined: Dict[str, List[Tuple[FileContext, ast.AST]]] = {}
    calls_of: Dict[str, Set[str]] = {}
    mentions_inval: Dict[str, bool] = {}

    for ctx in project.files:
        if ctx.tree is None:
            continue
        for func in ctx.functions():
            defined.setdefault(func.name, []).append((ctx, func))
            calls_of.setdefault(func.name, set()).update(_called_names(func))
            mentions_inval[func.name] = mentions_inval.get(
                func.name, False
            ) or _mentions_inval_token(func)

            # ORD521: inserts outside the gated populate path.
            for node in ast.walk(func):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "insert"
                    and _is_table_receiver(ctx, node)
                    and _enclosing_function(ctx, node) is func
                    and func.name not in _SANCTIONED_INSERTERS
                ):
                    report.append(
                        _RawFinding(
                            path=ctx.path,
                            line=node.lineno,
                            col=node.col_offset,
                            rule="ORD521",
                            message=(
                                "flow-table insert outside the gated "
                                "populate path (insert/hit_or_populate/"
                                "delivered) — populating before the "
                                "slow-inflight ledger retires the flow "
                                "re-opens the stale-hit window"
                            ),
                        )
                    )

            # ORD522: hit-serving lookup without a ledger check.
            enclosing = ctx.enclosing_class(func)
            if (
                enclosing is not None
                and "Table" in enclosing.name
                and _takes_segments(func)
            ):
                hit_bump = _serves_hits(func)
                if hit_bump is not None and not _mentions_inflight(func):
                    report.append(
                        _RawFinding(
                            path=ctx.path,
                            line=hit_bump.lineno,
                            col=hit_bump.col_offset,
                            rule="ORD522",
                            message=(
                                "flow-table lookup serves cached hits "
                                "without consulting the slow-inflight "
                                "ledger — a cached flow can overtake its "
                                "own slow-path predecessor"
                            ),
                        )
                    )

    # ORD523: removal entries must reach an invalidate_* routine.
    invalidators = {
        name for name in defined if name.startswith("invalidate")
    }
    if invalidators:
        for name, sites in sorted(defined.items()):
            if not _is_removal_entry(name):
                continue
            reachable: Set[str] = set()
            frontier = [name]
            while frontier:
                current = frontier.pop()
                if current in reachable:
                    continue
                reachable.add(current)
                frontier.extend(calls_of.get(current, ()))
            if any(
                "inval" in reached.lower() or mentions_inval.get(reached, False)
                for reached in reachable
            ):
                continue
            for ctx, func in sites:
                report.append(
                    _RawFinding(
                        path=ctx.path,
                        line=func.lineno,
                        col=func.col_offset,
                        rule="ORD523",
                        message=(
                            f"container removal/migration path "
                            f"'{name}' never reaches an invalidate_* "
                            "routine — stale flow-table entries keep "
                            "steering frames to the departed container"
                        ),
                    )
                )

    unique = sorted(
        set(report), key=lambda f: (f.path, f.line, f.col, f.rule, f.message)
    )
    _FINDINGS_CACHE.clear()
    _FINDINGS_CACHE[key] = (project, unique)
    return unique


class _FlowcacheRuleBase(Rule):
    scope = ("repro.kernel", "repro.overlay")

    def check_project(self, project: Project) -> Iterator[Finding]:
        by_path = {ctx.path: ctx for ctx in project.files}
        for raw in flowcache_findings(project):
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


class UngatedInsertRule(_FlowcacheRuleBase):
    id = "ORD521"
    title = "flow-table inserts go through the ledger-gated populate path"
    rationale = (
        "FlowTable.access marks the flow slow-inflight on a miss and "
        "only the delivery confirmation repopulates it; an insert from "
        "any other site puts the mapping live while an older packet of "
        "the same flow is still crossing the slow path, which is "
        "exactly the reordering ONCache's gate exists to prevent."
    )


class UngatedLookupRule(_FlowcacheRuleBase):
    id = "ORD522"
    title = "flow-table lookups must consult the slow-inflight ledger"
    rationale = (
        "Serving a cached hit while the same flow has a packet in "
        "flight through the slow path lets the cached copy overtake it; "
        "the membership test alone is not the gate — the ledger check "
        "is."
    )


class MissingInvalidationRule(_FlowcacheRuleBase):
    id = "ORD523"
    title = "container removal paths must reach cache invalidation"
    rationale = (
        "Host.remove_container and the cluster churn path both "
        "invalidate by IP today; any new teardown/migration route that "
        "skips invalidate_flow/ip/all leaves the fast path steering "
        "frames at a container that no longer exists — a silent "
        "delivery black hole the runtime counters only catch after the "
        "fact."
    )


FLOWCACHE_RULES: Tuple[Rule, ...] = (
    UngatedInsertRule(),
    UngatedLookupRule(),
    MissingInvalidationRule(),
)
