"""A rule family's analysis runs once per project, and only for it.

The san family reports several rule ids from one walk over the
project. The walk is memoised on the :class:`Project` itself, so the
family's rules share it and no other project can ever be served its
findings (a process-wide memo keyed by ``id(project)`` once served a
freed project's findings to the next project allocated at its address).
"""

import pytest

from repro.analysis.lint.core import FamilyRule, FileContext, Project
from repro.analysis.runner import ALL_RULES
from repro.analysis.san.rules_skbown import skbown_findings

FAMILY_ANALYSES = [
    skbown_findings,
]

#: Trips OWN611 (an skb used after it was encoded onto the wire)
#: wherever it is analyzed.
SHIP_TWICE = (
    "def ship(self, skb):\n"
    "    first = encode_skb(skb)\n"
    "    return (first, encode_skb(skb))\n"
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
    project = project_of(SHIP_TWICE)
    for rule in rules:
        list(rule.check_project(project))
    assert calls == [project]
    other = project_of(SHIP_TWICE)
    for rule in rules:
        list(rule.check_project(other))
    assert calls == [project, other]


def test_live_projects_never_share_findings():
    (rule,) = [rule for rule in ALL_RULES if rule.id == "OWN611"]
    dirty = project_of(SHIP_TWICE)
    clean = project_of("def ship(self, skb):\n    return encode_skb(skb)\n")
    assert [f.rule for f in rule.check_project(dirty)] == ["OWN611"]
    assert list(rule.check_project(clean)) == []
    assert [f.rule for f in rule.check_project(dirty)] == ["OWN611"]
