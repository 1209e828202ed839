"""Flow-cache entry-lifecycle rules (OWN621, OWN622, OWN623).

``repro order`` (ORD521-523) guards *when* the cache may serve or
populate; these rules guard the *lifecycle of the entries themselves*:
insert → hit → invalidate must be total, and every removal must release
exactly once and be accounted exactly once.

``OWN621``  unaccounted removal: an entry leaves the entries map
            (``del`` / ``pop`` / ``popitem`` / ``clear``) in a function
            that never bumps an eviction/invalidation counter — the
            release happened but the books say it did not, so the
            counter-conservation checks in ``repro.validate`` go blind
            on that path.
``OWN622``  double release: the same table entry is removed twice on one
            straight path (two removal ops with an identical receiver
            and key in the same statement sequence) — the classic
            ``RECORD_INVAL`` churn hazard, where the local invalidation
            and the remote record each think they own the teardown.
``OWN623``  lifecycle not total: a class inserts into an entries map but
            ships no removal surface at all (no ``invalidate*`` /
            ``evict*`` / ``clear`` / ``pop`` on that map) — entries are
            immortal by construction and churned containers keep their
            stale fast-path mappings forever.
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

#: Attribute-name fragment identifying the canonical entry map.
_ENTRIES_FRAGMENT = "entries"

#: Method-name fragments that count as release accounting (OWN621).
_ACCOUNT_FRAGMENTS = ("eviction", "invalidation", "removal")

#: Call names that remove from a mapping.
_REMOVAL_CALLS = frozenset(("pop", "popitem", "clear"))

#: Call names that release a whole entry by key at the table surface.
_INVALIDATE_CALLS = frozenset(
    ("invalidate", "invalidate_ip", "invalidate_all", "invalidate_flow")
)


def _mentions_entries(node: Optional[ast.AST]) -> bool:
    name = last_segment(node) if node is not None else None
    return name is not None and _ENTRIES_FRAGMENT in name.lower()


def _accounts_removal(func: "ast.FunctionDef | ast.AsyncFunctionDef") -> bool:
    """Does this function bump an eviction/invalidation counter?"""
    for node in ast.walk(func):
        if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
            target = node.target
            label = (
                target.attr
                if isinstance(target, ast.Attribute)
                else target.id if isinstance(target, ast.Name) else ""
            )
            if any(frag in label.lower() for frag in _ACCOUNT_FRAGMENTS):
                return True
    return False


def _entry_removals(
    func: "ast.FunctionDef | ast.AsyncFunctionDef",
) -> List[ast.AST]:
    """Statements that remove from an ``*entries*`` map in ``func``."""
    removals: List[ast.AST] = []
    for node in ast.walk(func):
        if isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript) and _mentions_entries(
                    target.value
                ):
                    removals.append(node)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _REMOVAL_CALLS
            and _mentions_entries(node.func.value)
        ):
            removals.append(node)
    return removals


def _removal_key(call: ast.Call) -> Tuple[str, str]:
    """(receiver, key) source identity of a by-key removal op."""
    receiver = ""
    func = call.func
    if isinstance(func, ast.Attribute):
        receiver = ast.dump(func.value)
    key = ast.dump(call.args[0]) if call.args else "()"
    return (receiver, key)


def _sequential_double_releases(
    func: "ast.FunctionDef | ast.AsyncFunctionDef",
) -> List[ast.AST]:
    """Second-and-later removals of one (receiver, key) in one suite.

    Only statements sharing a statement list (the same branch of the
    same block) are compared, so an if/else that releases on either arm
    stays silent while ``invalidate(k); invalidate(k)`` is flagged.
    """
    simple = (
        ast.Expr,
        ast.Assign,
        ast.AnnAssign,
        ast.AugAssign,
        ast.Delete,
        ast.Return,
        ast.Raise,
        ast.Assert,
    )
    doubled: List[ast.AST] = []
    for body in _statement_suites(func):
        seen: Set[Tuple[str, str]] = set()
        for stmt in body:
            # Compound statements carry their own suites (walked
            # separately); counting their bodies here would merge
            # mutually-exclusive branches into one "path".
            if not isinstance(stmt, simple):
                continue
            for node in ast.walk(stmt):
                identity: Optional[Tuple[str, str]] = None
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _INVALIDATE_CALLS
                ):
                    identity = (
                        ast.dump(node.func.value),
                        ast.dump(node.args[0]) if node.args else "()",
                    )
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "pop"
                    and _mentions_entries(node.func.value)
                ):
                    identity = _removal_key(node)
                elif isinstance(node, ast.Delete):
                    for target in node.targets:
                        if isinstance(
                            target, ast.Subscript
                        ) and _mentions_entries(target.value):
                            identity = (
                                ast.dump(target.value),
                                ast.dump(target.slice),
                            )
                if identity is None:
                    continue
                if identity in seen:
                    doubled.append(node)
                else:
                    seen.add(identity)
    return doubled


def _statement_suites(
    func: "ast.FunctionDef | ast.AsyncFunctionDef",
) -> Iterator[List[ast.stmt]]:
    """Every statement list in ``func`` (body, branch arms, loop bodies)."""
    stack: List[ast.AST] = [func]
    while stack:
        node = stack.pop()
        if node is not func and isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
        ):
            continue
        for field in ("body", "orelse", "finalbody"):
            body = getattr(node, field, None)
            if isinstance(body, list) and body:
                yield body
        stack.extend(ast.iter_child_nodes(node))


def _class_inserts_entries(cls: ast.ClassDef) -> Optional[ast.AST]:
    """The first ``<...entries...>[key] = value`` store in the class."""
    for node in ast.walk(cls):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Subscript) and _mentions_entries(
                    target.value
                ):
                    return node
    return None


def _class_removes_entries(cls: ast.ClassDef) -> bool:
    for func in (
        node
        for node in ast.walk(cls)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ):
        if _entry_removals(func):
            return True
    return False


#: Per-project memo so all three OWN62x rules walk once.
#: Entries hold the project itself, so its id cannot be reused by a
#: later project while the entry is cached.
_FINDINGS_CACHE: Dict[int, Tuple[Project, List[_RawFinding]]] = {}


def cache_findings(project: Project) -> List[_RawFinding]:
    key = id(project)
    cached = _FINDINGS_CACHE.get(key)
    if cached is not None:
        return cached[1]
    report: List[_RawFinding] = []
    for ctx in project.files:
        if ctx.tree is None:
            continue
        for func in ctx.functions():
            # OWN621: removal without accounting.
            removals = _entry_removals(func)
            if removals and not _accounts_removal(func):
                for node in removals:
                    report.append(
                        _RawFinding(
                            path=ctx.path,
                            line=getattr(node, "lineno", func.lineno),
                            col=getattr(node, "col_offset", 0),
                            rule="OWN621",
                            message=(
                                f"'{func.name}' removes a cache entry "
                                "without bumping an eviction/invalidation "
                                "counter — the release is unaccounted and "
                                "the lifecycle books no longer balance"
                            ),
                        )
                    )
            # OWN622: same entry released twice on one straight path.
            for node in _sequential_double_releases(func):
                report.append(
                    _RawFinding(
                        path=ctx.path,
                        line=getattr(node, "lineno", func.lineno),
                        col=getattr(node, "col_offset", 0),
                        rule="OWN622",
                        message=(
                            f"'{func.name}' releases the same cache entry "
                            "twice on one path — the second invalidation "
                            "either double-counts or tears down an entry "
                            "a concurrent re-insert now owns (the "
                            "RECORD_INVAL churn hazard)"
                        ),
                    )
                )
        # OWN623: inserts but no removal surface at all.
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            insert_site = _class_inserts_entries(node)
            if insert_site is not None and not _class_removes_entries(node):
                report.append(
                    _RawFinding(
                        path=ctx.path,
                        line=getattr(insert_site, "lineno", node.lineno),
                        col=getattr(insert_site, "col_offset", 0),
                        rule="OWN623",
                        message=(
                            f"class '{node.name}' populates an entries "
                            "map but defines no removal path (no "
                            "invalidate/evict/clear/pop on it) — the "
                            "insert→hit→invalidate lifecycle is not "
                            "total and every entry is immortal"
                        ),
                    )
                )
    unique = sorted(
        set(report), key=lambda f: (f.path, f.line, f.col, f.rule, f.message)
    )
    _FINDINGS_CACHE.clear()
    _FINDINGS_CACHE[key] = (project, unique)
    return unique


class _CacheRuleBase(Rule):
    scope = ("repro.kernel", "repro.overlay")

    def check_project(self, project: Project) -> Iterator[Finding]:
        by_path = {ctx.path: ctx for ctx in project.files}
        for raw in cache_findings(project):
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


class UnaccountedRemovalRule(_CacheRuleBase):
    id = "OWN621"
    title = "every cache-entry removal is accounted"
    rationale = (
        "The differential and golden suites reconcile hit/miss/eviction/"
        "invalidation counters across regimes and shard counts; a "
        "removal that skips the counter bump makes an N-shard run "
        "unreconcilable against the 1-shard books even when the "
        "datapath is correct."
    )


class DoubleInvalidationRule(_CacheRuleBase):
    id = "OWN622"
    title = "a cache entry is released exactly once per teardown"
    rationale = (
        "Container churn invalidates locally and notifies remote "
        "senders via RECORD_INVAL; if one path does both for the same "
        "table, the second release lands after a re-insert and tears "
        "down a live entry — a self-inflicted cache miss storm that "
        "only shows up as mysterious cross-shard counter drift."
    )


class ImmortalEntriesRule(_CacheRuleBase):
    id = "OWN623"
    title = "a cache that inserts must also invalidate"
    rationale = (
        "insert→hit→invalidate must be total: ONCache's correctness "
        "story is that churn reaches every copy of a mapping. A table "
        "with no removal surface keeps steering frames to departed "
        "containers, and no runtime counter ever flags it because "
        "nothing is miscounted — the entries are simply immortal."
    )


CACHE_RULES: Tuple[Rule, ...] = (
    UnaccountedRemovalRule(),
    DoubleInvalidationRule(),
    ImmortalEntriesRule(),
)
