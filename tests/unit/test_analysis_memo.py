"""A rule family's analysis runs once per project, and only for it.

The dataflow families report several rule ids from one walk over the
project. The walk is memoised on the :class:`Project` itself, so the
family's rules share it and no other project can ever be served its
findings (a process-wide memo keyed by ``id(project)`` once served a
freed project's findings to the next project allocated at its address).
"""

import pytest

from repro.analysis.flow.rules_skb import typestate_findings
from repro.analysis.flow.rules_time import unit_findings
from repro.analysis.lint.core import FamilyRule, FileContext, Project
from repro.analysis.runner import ALL_RULES
from repro.analysis.san.rules_skbown import skbown_findings

FAMILY_ANALYSES = [
    typestate_findings,
    unit_findings,
    skbown_findings,
]

#: Trips TIME501 (ns cost added to a us timestamp) wherever it is analyzed.
MIXED_UNITS = (
    "def deliver(self, cost_ns):\n"
    "    now_us = self.sim.now\n"
    "    return now_us + cost_ns\n"
)


def project_of(*sources):
    return Project(
        files=[
            FileContext(f"mod{index}.py", source, None)
            for index, source in enumerate(sources)
        ]
    )


@pytest.mark.parametrize(
    "analysis", FAMILY_ANALYSES, ids=lambda analysis: analysis.__name__
)
def test_family_analysis_runs_once_per_project(analysis, monkeypatch):
    rules = [
        rule
        for rule in ALL_RULES
        if isinstance(rule, FamilyRule) and rule.analysis is analysis
    ]
    assert len(rules) >= 2, "a family shares its analysis across its rules"
    calls = []

    def counted(project):
        calls.append(project)
        return analysis(project)

    for rule in rules:
        monkeypatch.setattr(rule, "analysis", counted)
    project = project_of(MIXED_UNITS)
    for rule in rules:
        list(rule.check_project(project))
    assert calls == [project]
    other = project_of(MIXED_UNITS)
    for rule in rules:
        list(rule.check_project(other))
    assert calls == [project, other]


def test_live_projects_never_share_findings():
    (rule,) = [rule for rule in ALL_RULES if rule.id == "TIME501"]
    dirty = project_of(MIXED_UNITS)
    clean = project_of("def deliver(self):\n    return self.sim.now\n")
    assert [f.rule for f in rule.check_project(dirty)] == ["TIME501"]
    assert list(rule.check_project(clean)) == []
    assert [f.rule for f in rule.check_project(dirty)] == ["TIME501"]
