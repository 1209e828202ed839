"""Simulated-concurrency race detector (RACE301).

The simulator models per-CPU kernel state — backlog queues, NAPI poll
lists, per-core softnet data — as Python lists indexed by CPU number
(``self.data[cpu_index]``). The concurrency contract, checked
dynamically by the PR-1 invariant monitors, is that *cross-core* traffic
into those structures always routes through the per-core serialization
layer: ``raise_net_rx`` / ``enqueue_backlog`` (which model the IPI +
softirq wakeup) or the engine/CPU primitives ``schedule`` /
``schedule_at`` / ``submit`` / ``submit_multi`` (which serialize the
work onto the target core's event stream). Code that reaches straight
into another core's structure would never race *in Python* — the DES is
single-threaded — but it silently models an impossible machine: state
appearing on a remote core with no IPI, no softirq raise and no latency.
That is exactly the class of modelling bug golden traces cannot localise.

This is a whole-project pass:

1. **Collect** per-CPU structures: any ``self.X = [... for _ in
   range(<expr mentioning cpus>)]`` in any linted file marks attribute
   ``X`` as per-CPU (the idiom used by ``SoftirqNet.data`` and friends).
2. **Entry points**: stage/handler functions — ``run_item`` / ``route``
   / ``flush`` / ``irq_handler`` / ``inject`` and every method of a
   class whose name mentions Stage/Transition/Napi — the code that runs
   per packet.
3. **Reachability**: a name-matching call graph (callee name -> any
   known function of that name, across modules) is walked from the
   entry points; this is what makes the pass cross-module — e.g.
   ``EnqueueTransition.route`` (stages.py) reaching
   ``enqueue_backlog`` (softirq.py). Dispatch calls (``schedule`` /
   ``schedule_at`` / ``submit`` ...) contribute their *arguments* as
   edges too, so a callback handed to the scheduler is traced into
   per-CPU structures just like a direct call.
4. **Check**: a reachable function that (a) juggles more than one CPU
   identity (two or more cpu/core-named parameters), (b) subscripts a
   per-CPU structure by one of them, and (c) never calls a
   serialization primitive, is flagged at the offending subscript.
   Methods of a per-CPU-owning class are checked even when the
   name-level call graph misses them (conservative fallback).

Heuristics, by design: single-cpu-parameter functions are assumed to run
*on* that core (they were themselves dispatched via ``submit``), which
matches the codebase idiom and keeps the rule quiet on correct code.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.lint.core import (
    FileContext,
    Finding,
    Project,
    Rule,
    last_segment,
)

#: Parameter names that carry a CPU/core identity.
CPU_PARAM_RE = re.compile(r"(?:^|_)(?:cpu|core)(?:$|_)|cpu$|^cpu|core$")

#: Calls that serialize work onto a target core's event stream.
SERIALIZATION_CALLS: Set[str] = {
    "raise_net_rx",
    "enqueue_backlog",
    "enqueue_to_backlog",
    "schedule",
    "schedule_at",
    "submit",
    "submit_multi",
}

#: Function names that are per-packet stage/handler entry points.
ENTRY_FUNCTION_NAMES: Set[str] = {
    "run_item",
    "route",
    "flush",
    "irq_handler",
    "inject",
}

#: Class-name fragments whose methods are entry points wholesale.
ENTRY_CLASS_FRAGMENTS: Tuple[str, ...] = ("Stage", "Transition", "Napi")

#: Calls that dispatch their callable arguments onto the event stream.
#: The call graph follows those arguments — ``sim.schedule(t, fn, item)``
#: reaches ``fn`` exactly like ``fn(item)`` would.
DISPATCH_CALLS: Set[str] = {
    "schedule",
    "schedule_at",
    "submit",
    "submit_multi",
}


@dataclass
class _Func:
    """One function definition with everything the pass needs."""

    ctx: FileContext
    node: "ast.FunctionDef | ast.AsyncFunctionDef"
    class_name: Optional[str]

    @property
    def name(self) -> str:
        return self.node.name

    def cpu_params(self) -> List[str]:
        args = self.node.args
        names = [
            arg.arg
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs)
            if arg.arg not in ("self", "cls")
        ]
        return [name for name in names if CPU_PARAM_RE.search(name)]

    def called_names(self) -> Set[str]:
        names: Set[str] = set()
        for sub in ast.walk(self.node):
            if not isinstance(sub, ast.Call):
                continue
            name = last_segment(sub.func)
            if name is None:
                continue
            names.add(name)
            if name in DISPATCH_CALLS:
                # Batch-posted callbacks are edges too: the scheduler
                # will call them, so the reachability walk must.
                for arg in sub.args:
                    arg_name = last_segment(arg)
                    if arg_name is not None:
                        names.add(arg_name)
                for keyword in sub.keywords:
                    arg_name = last_segment(keyword.value)
                    if arg_name is not None:
                        names.add(arg_name)
        return names

    def is_entry(self) -> bool:
        if self.name in ENTRY_FUNCTION_NAMES:
            return True
        if self.class_name is not None:
            return any(frag in self.class_name for frag in ENTRY_CLASS_FRAGMENTS)
        return False


class PerCpuRaceRule(Rule):
    """RACE301: unserialized cross-core access to per-CPU state."""

    id = "RACE301"
    title = "cross-core access must be serialized"
    rationale = (
        "Touching another core's per-CPU structure without raise_net_rx/"
        "enqueue_backlog/schedule/submit models state teleporting between "
        "cores with no IPI and no latency — a faithful-modelling bug the "
        "runtime invariant monitors can only catch when a workload "
        "happens to exercise it."
    )
    scope = ("repro.kernel",)

    # ------------------------------------------------------------------
    # Project-wide pass
    # ------------------------------------------------------------------
    def check_project(self, project: Project) -> Iterator[Finding]:
        files = [
            ctx
            for ctx in project.files
            if ctx.tree is not None and self.applies_to(ctx.module)
        ]
        if not files:
            return
        funcs = self._collect_functions(files)
        percpu = self._collect_percpu_attrs(files)
        if not percpu:
            return
        owning_classes = {owner for owner, _attr in percpu}
        percpu_names = {attr for _owner, attr in percpu}
        reachable = self._reachable_names(funcs)
        for func in funcs:
            in_owner = func.class_name in owning_classes
            if not (func.name in reachable or in_owner):
                continue
            yield from self._check_function(func, percpu_names)

    # ------------------------------------------------------------------
    # Phase 1: collection
    # ------------------------------------------------------------------
    @staticmethod
    def _collect_functions(files: List[FileContext]) -> List[_Func]:
        funcs: List[_Func] = []
        for ctx in files:
            for node in ctx.functions():
                cls = ctx.enclosing_class(node)
                funcs.append(
                    _Func(ctx=ctx, node=node, class_name=cls.name if cls else None)
                )
        return funcs

    @staticmethod
    def _collect_percpu_attrs(files: List[FileContext]) -> Set[Tuple[str, str]]:
        """``(owning class, attribute)`` pairs for per-CPU structures.

        Matches the construction idiom ``self.X = [ ... for _ in
        range(<expr>) ]`` where the range expression mentions cpus.
        """
        percpu: Set[Tuple[str, str]] = set()
        for ctx in files:
            assert ctx.tree is not None
            for node in ast.walk(ctx.tree):
                if not isinstance(node, ast.Assign):
                    continue
                if not isinstance(node.value, ast.ListComp):
                    continue
                generators = node.value.generators
                if not generators:
                    continue
                iter_expr = generators[0].iter
                if not (
                    isinstance(iter_expr, ast.Call)
                    and last_segment(iter_expr.func) == "range"
                ):
                    continue
                if "cpu" not in ast.unparse(iter_expr).lower():
                    continue
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        cls = ctx.enclosing_class(node)
                        if cls is not None:
                            percpu.add((cls.name, target.attr))
        return percpu

    # ------------------------------------------------------------------
    # Phase 2: name-level reachability from stage entry points
    # ------------------------------------------------------------------
    @staticmethod
    def _reachable_names(funcs: List[_Func]) -> Set[str]:
        defined: Dict[str, List[_Func]] = {}
        for func in funcs:
            defined.setdefault(func.name, []).append(func)
        frontier = [func for func in funcs if func.is_entry()]
        reachable: Set[str] = {func.name for func in frontier}
        while frontier:
            func = frontier.pop()
            for callee in func.called_names():
                if callee in reachable or callee not in defined:
                    continue
                reachable.add(callee)
                frontier.extend(defined[callee])
        return reachable

    # ------------------------------------------------------------------
    # Phase 3: the check proper
    # ------------------------------------------------------------------
    def _check_function(
        self, func: _Func, percpu_names: Set[str]
    ) -> Iterator[Finding]:
        cpu_params = func.cpu_params()
        if len(cpu_params) < 2:
            # One CPU identity: the function runs *on* that core (it was
            # itself dispatched there); its accesses are core-local.
            return
        accesses = self._percpu_accesses(func, percpu_names, set(cpu_params))
        if not accesses:
            return
        if func.called_names() & SERIALIZATION_CALLS:
            return
        for attr_name, node in accesses:
            yield self.finding(
                func.ctx, node,
                f"per-CPU structure '{attr_name}' accessed by CPU index in "
                f"'{func.name}', which handles multiple core identities "
                f"({', '.join(cpu_params)}) but never routes through a "
                "serialization primitive (raise_net_rx / enqueue_backlog "
                "/ schedule / submit)",
            )

    @staticmethod
    def _percpu_accesses(
        func: _Func, percpu_names: Set[str], cpu_params: Set[str]
    ) -> List[Tuple[str, ast.AST]]:
        accesses: List[Tuple[str, ast.AST]] = []
        for sub in ast.walk(func.node):
            if not isinstance(sub, ast.Subscript):
                continue
            if not (
                isinstance(sub.value, ast.Attribute)
                and sub.value.attr in percpu_names
            ):
                continue
            index_names = {
                n.id for n in ast.walk(sub.slice) if isinstance(n, ast.Name)
            }
            if index_names & cpu_params:
                accesses.append((sub.value.attr, sub))
        return accesses


RACE_RULES = (PerCpuRaceRule(),)
