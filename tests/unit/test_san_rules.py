"""Tests for the san rule family (ownership/lifetimes).

Same fixture discipline as the other families: every seeded violation
in ``tests/fixtures/san/`` carries a trailing ``# expect: RULE`` marker
and the tests, running the san family's rules, demand exact (file,
line, rule) agreement — no extra findings, none missing. The clean
twins (which deliberately mirror the real GRO/wire-codec/FlowTable
idioms) and the whole in-tree source must produce zero findings, which
is the family's false-positive budget.
"""

import json
import re
from pathlib import Path

import pytest

from repro.analysis.check import run_check
from repro.analysis.runner import FAMILIES, analyze, rule_by_id
from repro.analysis.trace import trace_check
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "san"
CLEAN_FILE = FIXTURES / "own61x_clean.py"

SAN_RULES = FAMILIES["san"]
SAN_RULE_IDS = [rule.id for rule in SAN_RULES]

MARKER_RE = re.compile(r"#\s*expect:\s*([A-Z0-9, ]+)")


def expected_fixture_findings():
    """(file name, line, rule) tuples derived from ``# expect:`` markers."""
    expected = set()
    for path in sorted(FIXTURES.glob("*.py")):
        for lineno, text in enumerate(
            path.read_text().splitlines(), start=1
        ):
            match = MARKER_RE.search(text)
            if match is None:
                continue
            for rule in match.group(1).replace(" ", "").split(","):
                if rule:
                    expected.add((path.name, lineno, rule))
    return expected


def rule_flags(rule_ids):
    """``--rule`` arguments selecting ``rule_ids`` on the command line."""
    return [arg for rule_id in rule_ids for arg in ("--rule", rule_id)]


def san_cross_check(dynamic_sites=None):
    """The trace step over the goldens and ``dynamic_sites``."""
    return trace_check(sites=dynamic_sites)


def actual_findings(paths, rule_ids=SAN_RULE_IDS):
    result = analyze([str(p) for p in paths], rule_ids=rule_ids)
    return result, {
        (Path(f.path).name, f.line, f.rule) for f in result.findings
    }


class TestFixtureCorpus:
    def test_exact_findings(self):
        result, actual = actual_findings([FIXTURES])
        assert actual == expected_fixture_findings()
        assert not result.ok

    def test_every_san_rule_is_exercised(self):
        rules_seen = {rule for _, _, rule in expected_fixture_findings()}
        for rule_id in SAN_RULE_IDS:
            assert rule_id in rules_seen, f"no fixture exercises {rule_id}"

    def test_clean_twins_stay_clean(self):
        clean = sorted(FIXTURES.glob("*_clean.py"))
        assert clean, "corpus is missing its clean twins"
        result, actual = actual_findings(clean)
        assert result.ok, result.to_text()
        assert actual == set()

    def test_findings_are_deterministic(self):
        first, _ = actual_findings([FIXTURES])
        second, _ = actual_findings([FIXTURES])
        assert first.findings == second.findings


class TestSourceTreeIsClean:
    """Zero in-tree findings is the false-positive budget of the pass.

    The shard wire codec, GRO and the flowcache satisfy every OWN rule
    with no baseline entry — no pragmas, no suppressions (see
    test_findings_baseline.py).
    """

    def test_src_owns_clean(self):
        result, _ = actual_findings([REPO_ROOT / "src"])
        assert result.ok, result.to_text()
        assert not result.suppressed
        assert result.files_checked > 50


class TestRuleCatalogue:
    def test_registry_matches_rules(self):
        assert SAN_RULE_IDS == [
            "OWN611", "OWN612", "OWN613", "OWN621", "OWN622", "OWN623",
        ]

    def test_rule_by_id(self):
        for rule in SAN_RULES:
            assert rule_by_id(rule.id) is rule
            assert rule.title and rule.rationale
        assert rule_by_id("BOGUS99") is None

    def test_single_rule_runs_alone(self):
        result, actual = actual_findings([FIXTURES], rule_ids=["OWN622"])
        rules = {rule for _, _, rule in actual}
        assert rules <= {"OWN622", "LINT000", "LINT001"}
        assert ("own62x_bad.py", 27, "OWN622") in actual
        assert not any(rule == "OWN621" for _, _, rule in actual)

    def test_unknown_rule_id_raises(self):
        with pytest.raises(ValueError, match="BOGUS99"):
            analyze([str(FIXTURES)], rule_ids=["BOGUS99"])


class TestOwnershipSemantics:
    """The path-sensitivity the corpus README calls out: a release on
    each of two disjoint paths is not a double release, and retention is
    tracked per path rather than per function."""

    def test_branch_release_is_not_double(self, tmp_path):
        copy = tmp_path / "branch_release.py"
        copy.write_text(
            "def teardown(self, table, key, local):\n"
            "    if local:\n"
            "        table.invalidate(key)\n"
            "    else:\n"
            "        table.invalidate(key)\n"
        )
        result, _ = actual_findings([copy])
        assert result.ok, result.to_text()

    def test_store_xor_forward_stays_silent(self, tmp_path):
        # GRO's shape: held on one path, returned on the disjoint other.
        copy = tmp_path / "gro_shape.py"
        copy.write_text(
            "def feed(self, skb):\n"
            "    if self._mergeable(skb):\n"
            "        self.held.append(skb)\n"
            "        return None\n"
            "    return skb\n"
        )
        result, _ = actual_findings([copy])
        assert result.ok, result.to_text()

    def test_store_and_forward_is_flagged(self, tmp_path):
        copy = tmp_path / "retained.py"
        copy.write_text(
            "def feed(self, skb):\n"
            "    self.held.append(skb)\n"
            "    return skb\n"
        )
        _, actual = actual_findings([copy])
        assert ("retained.py", 3, "OWN612") in actual


class TestPragmaSuppression:
    """Ownership findings honour the shared simlint pragma machinery."""

    def test_disable_pragma_suppresses_san_finding(self, tmp_path):
        src = (FIXTURES / "own62x_bad.py").read_text()
        patched = src.replace(
            "table.invalidate(key)  # expect: OWN622",
            "table.invalidate(key)  # simlint: disable=OWN622",
        )
        assert patched != src
        copy = tmp_path / "suppressed.py"
        copy.write_text(patched)
        result, actual = actual_findings([copy])
        assert ("suppressed.py", 27, "OWN622") not in actual
        assert [f.rule for f in result.suppressed] == ["OWN622"]
        assert result.suppressed[0].line == 27

    def test_san_ids_are_known_to_lint_meta_rules(self, tmp_path):
        copy = tmp_path / "cross.py"
        copy.write_text("x = 1  # simlint: disable=OWN611\n")
        result = analyze([str(copy)], rule_ids=["SIM101"])
        assert result.ok, result.to_text()


class TestStaticDynamicCrossCheck:
    """Every site tag the runtime ledger reports must be in the static
    catalog — a tag the scan cannot find means an instrumentation call
    built its site string at runtime — and the probe must exercise every
    catalogued site."""

    def test_probe_exercises_known_sites_only(self):
        check = san_cross_check()
        assert check.ok, check.errors()
        assert len(check.static_sites) >= 7
        # The probe covers both kinds and every release path.
        assert check.unexercised_sites == [], check.unexercised_sites
        for site in ("flowtable.evict", "outbox.emit", "world.inject"):
            assert site in check.dynamic_sites, site

    def test_unknown_dynamic_site_fails(self):
        check = san_cross_check(dynamic_sites=["outbox.emit", "bogus.site"])
        assert not check.ok
        assert check.unknown_sites == ["bogus.site"]
        assert any("bogus.site" in line for line in check.errors())

    def test_unexercised_site_fails(self):
        # An unexercised site is not an unknown one; it fails the step
        # on its own account.
        check = san_cross_check(dynamic_sites=["outbox.emit"])
        assert check.unknown_sites == []
        assert "world.inject" in check.unexercised_sites
        assert not check.ok


class TestUnifiedCheck:
    """`repro check` runs the san rules alongside the other families."""

    def test_fixture_run_fails_san_only(self):
        report = run_check([str(FIXTURES)])
        assert not report.ok
        by_name = {step.name: step for step in report.steps}
        assert set(by_name) == {"rules", "trace", "mypy"}
        assert not by_name["rules"].ok
        assert by_name["trace"].ok
        assert {f.rule for f in report.analysis.findings} == set(SAN_RULE_IDS)

    def test_rule_filter_routes_to_owning_analyzer(self):
        report = run_check([str(FIXTURES)], rule_ids=["OWN621"])
        assert not report.ok
        assert {f.rule for f in report.analysis.findings} == {"OWN621"}


class TestCli:
    def test_san_src_exits_zero(self, capsys):
        code = main(["check", str(REPO_ROOT / "src"), *rule_flags(SAN_RULE_IDS)])
        assert code == 0
        assert "check OK" in capsys.readouterr().out

    def test_san_fixtures_exits_one_with_json(self, capsys):
        code = main([
            "check", str(FIXTURES), "--format", "json",
            *rule_flags(SAN_RULE_IDS),
        ])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["rules"]["counts_by_rule"]["OWN621"] == 2
        assert payload["rules"]["counts_by_rule"]["OWN611"] == 4

    def test_unknown_rule_exits_two(self, capsys):
        code = main(["check", str(FIXTURES), "--rule", "BOGUS99"])
        assert code == 2
        assert "BOGUS99" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["check", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in SAN_RULE_IDS:
            assert rule_id in out

    def test_trace_exits_zero(self, capsys):
        assert main(["check", str(CLEAN_FILE), "--rule", "OWN611"]) == 0
        out = capsys.readouterr().out
        assert "sanitizer sites" in out
