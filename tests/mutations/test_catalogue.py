"""The mutation catalogue (``catalogue.py``) must match what the checks do.

Tier-1: every planted bug gets exactly the static findings its row
claims, at the planted line, and no others; an unmutated copy of every
planted module is clean; every static rule and every dynamic column has
a row that only it catches.
Slow tier: the dynamic checks run on each planted copy in a subprocess
and catch exactly the row's columns.
"""

import pytest

from repro.analysis.runner import ALL_RULES

from catalogue import (
    BUGS,
    DYNAMIC,
    MODULE_TESTS,
    REPO_ROOT,
    copy_src,
    dynamic_catchers,
    line_of,
    plant,
    render_table,
    static_findings,
)

_IDS = [bug.name for bug in BUGS]


def test_names_are_unique():
    assert len(set(_IDS)) == len(_IDS)


@pytest.mark.parametrize("bug", BUGS, ids=_IDS)
def test_every_bug_has_a_catcher(bug):
    assert bug.caught_by, f"{bug.name} is caught by nothing"
    assert bug.caught_by <= set(DYNAMIC) | set(bug.rules)
    assert bool(bug.rules) == bool(bug.flag)


@pytest.mark.parametrize("check", [rule.id for rule in ALL_RULES] + list(DYNAMIC))
def test_every_rule_has_a_row_only_it_catches(check):
    assert any(bug.caught_by == {check} for bug in BUGS), (
        f"{check} catches no planted bug that nothing else catches"
    )


@pytest.mark.parametrize("path", sorted({bug.path for bug in BUGS}))
def test_verbatim_copy_is_clean(path, tmp_path):
    copy_src(tmp_path)
    assert static_findings(tmp_path / "src" / "repro" / path) == []


@pytest.mark.parametrize("bug", BUGS, ids=_IDS)
def test_static_findings(bug, tmp_path):
    mutated = plant(bug, tmp_path)
    expected = [(line_of(mutated, bug.flag), rule) for rule in bug.rules]
    assert static_findings(mutated) == expected


def test_docs_table_matches_catalogue():
    doc = (REPO_ROOT / "docs" / "architecture.md").read_text()
    assert render_table() in doc, (
        "docs/architecture.md is out of date; paste the output of "
        "`PYTHONPATH=src python tests/mutations/catalogue.py`"
    )


@pytest.mark.slow
def test_clean_copy_passes_every_dynamic_check(tmp_path):
    copy_src(tmp_path)
    every_module_test = sorted({t for tests in MODULE_TESTS.values() for t in tests})
    caught, out = dynamic_catchers(tmp_path, every_module_test)
    assert caught == set(), out


@pytest.mark.slow
@pytest.mark.parametrize("bug", BUGS, ids=_IDS)
def test_dynamic_catchers(bug, tmp_path):
    plant(bug, tmp_path)
    caught, out = dynamic_catchers(tmp_path, MODULE_TESTS[bug.path])
    assert caught == bug.caught_by - set(bug.rules), out
