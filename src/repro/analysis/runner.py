"""The analyzer: one rule catalogue and one runner for every rule family.

Two families of rules share one pass over one parsed project:

=======  =========================================================  =====
family   contract                                                   ids
=======  =========================================================  =====
lint     determinism, DES discipline, cross-core per-CPU races      SIM1xx
                                                                    DES2xx
                                                                    RACE3xx
san      skb ownership transfer                                     OWN6xx
=======  =========================================================  =====

:func:`analyze` reads and parses each file once, runs every selected
rule on the one :class:`~repro.analysis.lint.core.Project`, emits the
meta findings (LINT000 malformed or unknown pragmas, LINT001 files that
do not parse) once, and applies the ``# simlint:`` pragmas of
:mod:`repro.analysis.pragmas`. ``repro check``
(:mod:`repro.analysis.check`) is its command-line front end.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.lint.core import (
    META_RULE_ID,
    PARSE_RULE_ID,
    FileContext,
    Finding,
    Project,
    Rule,
    meta_findings,
    module_name_for,
)
from repro.analysis.lint.rules_des import DES_RULES
from repro.analysis.lint.rules_determinism import DETERMINISM_RULES
from repro.analysis.lint.rules_race import RACE_RULES
from repro.analysis.san.rules_skbown import SKBOWN_RULES

#: Every rule, by family, in catalogue order.
FAMILIES: Dict[str, Tuple[Rule, ...]] = {
    "lint": DETERMINISM_RULES + DES_RULES + RACE_RULES,
    "san": SKBOWN_RULES,
}

#: Every rule, in catalogue order.
ALL_RULES: Tuple[Rule, ...] = tuple(
    rule for rules in FAMILIES.values() for rule in rules
)

#: Directory names never descended into.
_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache", "results"}


def rule_by_id(rule_id: str) -> Optional[Rule]:
    for rule in ALL_RULES:
        if rule.id == rule_id:
            return rule
    return None


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files.

    Raises ``ValueError`` naming the path when a path does not exist, or
    when the paths hold no ``.py`` file at all: a typo must not turn a
    gate into a pass over nothing.
    """
    found: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py"):
                found.append(path)
            continue
        if not os.path.isdir(path):
            raise ValueError(f"no such file or directory: {path}")
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                name for name in dirnames if name not in _SKIP_DIRS
            )
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    found.append(os.path.join(dirpath, filename))
    if not found:
        raise ValueError(f"no .py files in {', '.join(paths) or 'no paths'}")
    return sorted(dict.fromkeys(found))


@dataclass
class AnalysisResult:
    """Outcome of one :func:`analyze` run."""

    findings: List[Finding] = field(default_factory=list)
    #: Findings silenced by a pragma/exemption — kept (not dropped) so
    #: the baseline ratchet can freeze the suppression inventory.
    suppressed: List[Finding] = field(default_factory=list)
    #: The files and directories the run was asked to analyze.
    paths: List[str] = field(default_factory=list)
    files_checked: int = 0
    rules_run: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def counts_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))

    def summary(self) -> str:
        text = f"{len(self.findings)} finding(s) in {self.files_checked} files"
        if self.findings:
            text += " (" + ", ".join(
                f"{rule}×{count}" for rule, count in self.counts_by_rule().items()
            ) + ")"
        if self.suppressed:
            text += f"; {len(self.suppressed)} suppressed"
        return text

    def to_text(self) -> str:
        """``path:line:col: RULE message`` per finding plus the summary."""
        return "\n".join([str(f) for f in self.findings] + [self.summary()])

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "files_checked": self.files_checked,
            "rules_run": list(self.rules_run),
            "counts_by_rule": self.counts_by_rule(),
            "suppressed": [
                {"path": f.path, "line": f.line, "rule": f.rule}
                for f in self.suppressed
            ],
            "findings": [
                {
                    "path": f.path,
                    "line": f.line,
                    "col": f.col + 1,
                    "rule": f.rule,
                    "message": f.message,
                }
                for f in self.findings
            ],
        }


def analyze(
    paths: Sequence[str],
    rule_ids: Optional[Iterable[str]] = None,
) -> AnalysisResult:
    """Run all or the selected rules over ``paths`` (files or trees).

    Pragmas are applied after the rules run, so a pragma silences a
    finding without changing what the rules see. Unknown ids in
    ``rule_ids`` raise ``ValueError`` — a typo in ``--rule`` must not
    silently check nothing.
    """
    selected: List[Rule]
    if rule_ids is None:
        selected = list(ALL_RULES)
    else:
        selected = []
        for rule_id in rule_ids:
            rule = rule_by_id(rule_id)
            if rule is None:
                known = ", ".join(r.id for r in ALL_RULES)
                raise ValueError(f"unknown rule id {rule_id!r} (known: {known})")
            selected.append(rule)

    files: List[FileContext] = []
    for path in iter_python_files(paths):
        with open(path, "r", encoding="utf-8") as handle:
            files.append(FileContext(path, handle.read(), module_name_for(path)))
    project = Project(files=files)

    findings: List[Finding] = []
    for rule in selected:
        findings.extend(rule.check_project(project))
    # Meta findings (parse errors, malformed pragmas) always run: a file
    # that cannot be parsed was not checked, and silence would be a lie.
    known_ids = [rule.id for rule in ALL_RULES]
    for ctx in files:
        findings.extend(meta_findings(ctx, known_ids))

    by_path = {ctx.path: ctx for ctx in files}
    result = AnalysisResult(
        paths=list(paths),
        files_checked=len(files),
        rules_run=[rule.id for rule in selected],
    )
    for finding in sorted(findings):
        ctx = by_path.get(finding.path)
        if (
            ctx is not None
            # the suppression machinery cannot suppress itself
            and finding.rule not in (META_RULE_ID, PARSE_RULE_ID)
            and ctx.suppressed(finding.rule, finding.line)
        ):
            result.suppressed.append(finding)
        else:
            result.findings.append(finding)
    return result
