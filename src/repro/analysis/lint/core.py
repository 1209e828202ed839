"""Core machinery of the analyzer.

The runner (:mod:`repro.analysis.runner`) parses every file once into a
:class:`FileContext` (AST + import-alias tables + pragmas + exemption
spans) and hands each file to each :class:`Rule`. Rules are AST visitors
in spirit but receive whole files, so that a rule can correlate nodes
(e.g. "a numeric literal passed as a scheduling delay").

Name resolution is deliberately conservative: a dotted call like
``np.random.default_rng(...)`` is only canonicalised to
``numpy.random.default_rng`` when the root name is actually an import in
that file. An attribute chain rooted at a local variable (``socket`` the
*parameter* vs ``socket`` the *module*) never aliases to a module, which
keeps the rules free of the classic grep false positives.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.pragmas import RULE_ID_RE, FilePragmas, parse_pragmas

#: Rule id reported for malformed/unknown pragmas and exemptions.
META_RULE_ID = "LINT000"
#: Rule id reported for files that do not parse at all.
PARSE_RULE_ID = "LINT001"

#: Packages that make up the *simulated system* — code that runs under
#: simulated time on simulated cores. The DES-discipline rules apply
#: here; harness/reporting packages (metrics, experiments, validate,
#: cli) are free to do real I/O and real timing.
SIMULATED_SCOPE: Tuple[str, ...] = (
    "repro.sim",
    "repro.kernel",
    "repro.hw",
    "repro.overlay",
    "repro.core",
    "repro.workloads",
)


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    Ordered by (path, line, col, rule, message): the report order.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: {self.rule} {self.message}"


@dataclass
class ExemptSpan:
    """Line range covered by a ``@lint_exempt`` decorator."""

    start: int
    end: int
    rules: Set[str]
    has_reason: bool


class FileContext:
    """One parsed source file plus everything rules need to know about it."""

    def __init__(self, path: str, source: str, module: Optional[str]) -> None:
        self.path = path
        self.source = source
        #: Dotted module name when the file lives under ``src/repro``;
        #: None for out-of-tree files (fixtures), to which every rule
        #: applies.
        self.module = module
        self.pragmas: FilePragmas = parse_pragmas(source)
        self.exempt_spans: List[ExemptSpan] = []
        self.parents: Dict[ast.AST, ast.AST] = {}
        #: local name -> imported module dotted path (``import x.y as z``).
        self.module_aliases: Dict[str, str] = {}
        #: local name -> fully qualified imported attribute
        #: (``from time import time`` binds ``time -> time.time``).
        self.from_imports: Dict[str, str] = {}
        self.error: Optional[str] = None
        try:
            self.tree: Optional[ast.Module] = ast.parse(source, filename=path)
        except SyntaxError as exc:
            self.tree = None
            self.error = f"{exc.msg} (line {exc.lineno})"
            return
        self._index()

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------
    def _index(self) -> None:
        assert self.tree is not None
        for node in ast.walk(self.tree):
            for child in ast.iter_child_nodes(node):
                self.parents[child] = node
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    # ``import a.b`` binds the *root* name a; ``import
                    # a.b as c`` binds c to the full dotted path.
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.module_aliases[local] = target
            elif isinstance(node, ast.ImportFrom):
                if node.level or node.module is None:
                    continue  # relative imports stay project-local
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.from_imports[local] = f"{node.module}.{alias.name}"
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                span = self._exempt_span(node)
                if span is not None:
                    self.exempt_spans.append(span)

    def _exempt_span(
        self, node: "ast.FunctionDef | ast.AsyncFunctionDef"
    ) -> Optional[ExemptSpan]:
        rules: Set[str] = set()
        has_reason = True
        found = False
        for decorator in node.decorator_list:
            if not isinstance(decorator, ast.Call):
                continue
            name = last_segment(decorator.func)
            if name != "lint_exempt":
                continue
            found = True
            for arg in decorator.args:
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                    rules.add(arg.value)
            reason = next(
                (kw for kw in decorator.keywords if kw.arg == "reason"), None
            )
            if reason is None or (
                isinstance(reason.value, ast.Constant)
                and not str(reason.value.value).strip()
            ):
                has_reason = False
        if not found:
            return None
        start = min(
            [node.lineno] + [dec.lineno for dec in node.decorator_list]
        )
        end = node.end_lineno or node.lineno
        return ExemptSpan(start=start, end=end, rules=rules, has_reason=has_reason)

    # ------------------------------------------------------------------
    # Name resolution
    # ------------------------------------------------------------------
    def resolve(self, node: ast.AST) -> Optional[Tuple[str, str]]:
        """Resolve a call target to ``(kind, name)``.

        ``("module", "numpy.random.default_rng")`` when the attribute
        chain is rooted at an import in this file; ``("bare", "open")``
        for a plain name; None for anything else (attributes of local
        objects, subscripts, calls-of-calls ...).
        """
        parts: List[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        root = current.id
        parts.append(root)
        parts.reverse()
        if root in self.module_aliases:
            parts[0] = self.module_aliases[root]
            return ("module", ".".join(parts))
        if root in self.from_imports:
            parts[0] = self.from_imports[root]
            return ("module", ".".join(parts))
        if len(parts) == 1:
            return ("bare", root)
        return None

    def suppressed(self, rule_id: str, line: int) -> bool:
        """True when any pragma form silences ``rule_id`` at ``line``."""
        if self.pragmas.suppresses(rule_id, line):
            return True
        for span in self.exempt_spans:
            if span.start <= line <= span.end and rule_id in span.rules:
                return True
        return False


class Rule:
    """Base class for the rules.

    Subclasses set the class attributes and implement :meth:`check_file`.
    """

    id: str = "LINT999"
    title: str = ""
    rationale: str = ""
    #: Module-prefix scope; None applies everywhere. Out-of-tree files
    #: (module is None) are always in scope — strict by default.
    scope: Optional[Tuple[str, ...]] = None
    #: Module-prefix carve-outs *inside* the scope. For rules whose
    #: discipline has a designated boundary module — e.g. the DES
    #: concurrency bans, which must not fire on the shard engine's
    #: process transport, the one sanctioned OS-facing corner of the
    #: simulated scope. Prefer this over per-line pragmas when the whole
    #: module is the exemption.
    exempt: Tuple[str, ...] = ()

    def applies_to(self, module: Optional[str]) -> bool:
        if module is not None and any(
            module == prefix or module.startswith(prefix + ".")
            for prefix in self.exempt
        ):
            return False
        if self.scope is None or module is None:
            return True
        return any(
            module == prefix or module.startswith(prefix + ".")
            for prefix in self.scope
        )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        return ()

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.id,
            message=message,
        )


def last_segment(node: ast.AST) -> Optional[str]:
    """The final identifier of a call target (``a.b.c`` -> ``c``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def walk_numeric_literals(node: ast.AST) -> Iterator[ast.Constant]:
    """Yield non-zero numeric literals inside ``node``.

    Does not descend into nested lambdas/defs: a callback passed where a
    duration is expected is somebody else's scope, not a magic delay.
    """
    stack: List[ast.AST] = [node]
    while stack:
        sub = stack.pop()
        if isinstance(sub, (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if (
            isinstance(sub, ast.Constant)
            and isinstance(sub.value, (int, float))
            and not isinstance(sub.value, bool)
            and sub.value != 0
        ):
            yield sub
        stack.extend(ast.iter_child_nodes(sub))


def module_name_for(path: str) -> Optional[str]:
    """Map a file path to its ``repro.*`` module name, if it has one."""
    normalized = path.replace("\\", "/")
    marker = "src/repro/"
    index = normalized.rfind(marker)
    if index < 0:
        return None
    rest = normalized[index + len("src/") :]
    if rest.endswith(".py"):
        rest = rest[: -len(".py")]
    parts = [part for part in rest.split("/") if part]
    if parts and parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def meta_findings(ctx: FileContext, known_ids: Sequence[str]) -> Iterator[Finding]:
    """LINT000/LINT001 findings: parse errors and bad pragmas."""
    if ctx.error is not None:
        yield Finding(ctx.path, 1, 0, PARSE_RULE_ID, f"file does not parse: {ctx.error}")
        return
    known = set(known_ids) | {META_RULE_ID, PARSE_RULE_ID}
    for line, message in ctx.pragmas.malformed:
        yield Finding(ctx.path, line, 0, META_RULE_ID, message)
    for line, rules in sorted(ctx.pragmas.line_rules.items()):
        for rule_id in sorted(rules):
            if rule_id != "all" and rule_id not in known:
                yield Finding(
                    ctx.path, line, 0, META_RULE_ID,
                    f"pragma names unknown rule id {rule_id!r}",
                )
    for rule_id in sorted(ctx.pragmas.file_rules):
        if rule_id != "all" and rule_id not in known:
            yield Finding(
                ctx.path, 1, 0, META_RULE_ID,
                f"file pragma names unknown rule id {rule_id!r}",
            )
    for span in ctx.exempt_spans:
        if not span.has_reason:
            yield Finding(
                ctx.path, span.start, 0, META_RULE_ID,
                "lint_exempt without a non-empty reason= keyword",
            )
        for rule_id in sorted(span.rules):
            if not RULE_ID_RE.match(rule_id) or rule_id not in known:
                yield Finding(
                    ctx.path, span.start, 0, META_RULE_ID,
                    f"lint_exempt names unknown rule id {rule_id!r}",
                )
