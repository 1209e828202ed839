"""File discovery, rule dispatch and suppression for ``repro san``.

Mirrors :mod:`repro.analysis.order.runner` — same file discovery, same
:class:`FileContext`/:class:`Project` model, same pragma machinery and
the same reporters — but runs the ownership rules. All four passes share
one rule-id namespace, so a ``# simlint: disable=OWN611`` pragma is
valid anywhere and no pass flags another's ids as unknown.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.analysis.lint.core import (
    FileContext,
    Finding,
    Project,
    Rule,
    meta_findings,
    module_name_for,
)
from repro.analysis.lint.report import LintResult
from repro.analysis.lint.runner import iter_python_files, known_rule_ids
from repro.analysis.san.registry import SAN_RULE_IDS
from repro.analysis.san.rules_cache import CACHE_RULES
from repro.analysis.san.rules_skbown import SKBOWN_RULES

#: Every ownership rule, in catalogue order.
SAN_RULES: Tuple[Rule, ...] = SKBOWN_RULES + CACHE_RULES

assert tuple(rule.id for rule in SAN_RULES) == SAN_RULE_IDS, (
    "san registry out of sync with the rule classes"
)


def san_rule_by_id(rule_id: str) -> Optional[Rule]:
    for rule in SAN_RULES:
        if rule.id == rule_id:
            return rule
    return None


def san_paths(
    paths: Sequence[str],
    rule_ids: Optional[Iterable[str]] = None,
) -> LintResult:
    """Run the ownership rules over ``paths`` (files or trees).

    Same contract as :func:`repro.analysis.lint.runner.lint_paths`:
    pragmas are applied after rule execution, suppressed findings are
    retained separately for the baseline ratchet, and unknown ids in
    ``rule_ids`` raise ``ValueError``.
    """
    selected: List[Rule]
    if rule_ids is None:
        selected = list(SAN_RULES)
    else:
        selected = []
        for rule_id in rule_ids:
            rule = san_rule_by_id(rule_id)
            if rule is None:
                known = ", ".join(r.id for r in SAN_RULES)
                raise ValueError(f"unknown rule id {rule_id!r} (known: {known})")
            selected.append(rule)

    files = [
        FileContext(path, _read(path), module_name_for(path))
        for path in iter_python_files(paths)
    ]
    project = Project(files=files)

    findings: List[Finding] = []
    for rule in selected:
        findings.extend(rule.check_project(project))
    by_path = {ctx.path: ctx for ctx in files}
    for ctx in files:
        findings.extend(meta_findings(ctx, known_rule_ids()))

    kept: List[Finding] = []
    suppressed: List[Finding] = []
    for finding in findings:
        ctx = by_path.get(finding.path)
        if (
            ctx is not None
            and finding.rule not in ("LINT000", "LINT001")
            and ctx.suppressed(finding.rule, finding.line)
        ):
            suppressed.append(finding)
        else:
            kept.append(finding)
    kept.sort(key=Finding.sort_key)
    suppressed.sort(key=Finding.sort_key)
    return LintResult(
        findings=kept,
        files_checked=len(files),
        rules_run=[rule.id for rule in selected],
        suppressed=suppressed,
    )


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()
