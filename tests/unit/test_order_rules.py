"""Tests for the order rule family (ordering/causality) and ``repro check``.

Same fixture discipline as the other families: every seeded violation
in ``tests/fixtures/order/`` carries a trailing ``# expect: RULE``
marker and the tests, running the order family's rules, demand exact
(file, line, rule) agreement — no extra findings, none missing. The
clean twins (which deliberately mirror the real shard/flowcache idioms)
and the whole in-tree source must produce zero findings, which is the
family's false-positive budget.
"""

import json
import re
from pathlib import Path

import pytest

import repro.validate.golden
from repro.analysis.check import run_check
from repro.analysis.runner import FAMILIES, analyze, rule_by_id
from repro.analysis.trace import trace_check
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "order"
CLEAN_FILE = FIXTURES / "ord51x_clean.py"

ORDER_RULES = FAMILIES["order"]
ORDER_RULE_IDS = [rule.id for rule in ORDER_RULES]

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


def actual_findings(paths, rule_ids=ORDER_RULE_IDS):
    result = analyze([str(p) for p in paths], rule_ids=rule_ids)
    return result, {
        (Path(f.path).name, f.line, f.rule) for f in result.findings
    }


class TestFixtureCorpus:
    def test_exact_findings(self):
        result, actual = actual_findings([FIXTURES])
        assert actual == expected_fixture_findings()
        assert not result.ok

    def test_every_order_rule_is_exercised(self):
        rules_seen = {rule for _, _, rule in expected_fixture_findings()}
        for rule_id in ORDER_RULE_IDS:
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

    The real shard engine and flowcache satisfy every ORD rule with no
    baseline entry — no pragmas, no suppressions (see
    test_findings_baseline.py).
    """

    def test_src_orders_clean(self):
        result, _ = actual_findings([REPO_ROOT / "src"])
        assert result.ok, result.to_text()
        assert not result.suppressed
        assert result.files_checked > 50


class TestRuleCatalogue:
    def test_registry_matches_rules(self):
        assert ORDER_RULE_IDS == [
            "ORD501", "ORD502", "ORD503",
            "ORD511", "ORD512", "ORD513",
            "ORD521", "ORD522", "ORD523",
        ]

    def test_rule_by_id(self):
        for rule in ORDER_RULES:
            assert rule_by_id(rule.id) is rule
            assert rule.title and rule.rationale
        assert rule_by_id("BOGUS99") is None

    def test_single_rule_runs_alone(self):
        result, actual = actual_findings([FIXTURES], rule_ids=["ORD511"])
        rules = {rule for _, _, rule in actual}
        assert rules <= {"ORD511", "LINT000", "LINT001"}
        assert ("ord51x_bad.py", 16, "ORD511") in actual
        assert not any(rule == "ORD501" for _, _, rule in actual)

    def test_unknown_rule_id_raises(self):
        with pytest.raises(ValueError, match="BOGUS99"):
            analyze([str(FIXTURES)], rule_ids=["BOGUS99"])


class TestMustAnalysisSemantics:
    """ORD511's bound proof is a must-analysis: intersection join."""

    def test_one_branch_bound_is_not_enough(self, tmp_path):
        copy = tmp_path / "one_branch.py"
        copy.write_text(
            "def publish(self, flag, src):\n"
            "    if flag:\n"
            "        when = self.sim.now + self.propagation_us\n"
            "    else:\n"
            "        when = self.sim.now\n"
            "    self.outbox.emit(when, 'credit', src, ())\n"
        )
        _, actual = actual_findings([copy])
        assert ("one_branch.py", 6, "ORD511") in actual

    def test_rebinding_kills_the_bound(self, tmp_path):
        copy = tmp_path / "rebound.py"
        copy.write_text(
            "def publish(self, src):\n"
            "    when = self.sim.now + self.propagation_us\n"
            "    when = self.sim.now\n"
            "    self.outbox.emit(when, 'credit', src, ())\n"
        )
        _, actual = actual_findings([copy])
        assert ("rebound.py", 4, "ORD511") in actual

    def test_both_branches_bound_stays_quiet(self, tmp_path):
        copy = tmp_path / "both.py"
        copy.write_text(
            "def publish(self, flag, src):\n"
            "    if flag:\n"
            "        when = self.link.reserve(64)\n"
            "    else:\n"
            "        when = self.sim.now + self.propagation_us\n"
            "    self.outbox.emit(when, 'credit', src, ())\n"
        )
        result, _ = actual_findings([copy])
        assert result.ok, result.to_text()


class TestPragmaSuppression:
    """Order findings honour the shared simlint pragma machinery."""

    def test_disable_pragma_suppresses_order_finding(self, tmp_path):
        src = (FIXTURES / "ord51x_bad.py").read_text()
        patched = src.replace(
            "# expect: ORD511", "# simlint: disable=ORD511"
        )
        assert patched != src
        copy = tmp_path / "suppressed.py"
        copy.write_text(patched)
        result, actual = actual_findings([copy])
        assert {rule for _, _, rule in actual} == {"ORD512", "ORD513"}
        assert len(result.suppressed) == 2
        assert {f.rule for f in result.suppressed} == {"ORD511"}

    def test_order_ids_are_known_to_lint_meta_rules(self, tmp_path):
        # LINT000 (unknown rule id in pragma) must not fire for order
        # ids when only the lint family runs.
        copy = tmp_path / "cross.py"
        copy.write_text("x = 1  # simlint: disable=ORD521\n")
        result = analyze([str(copy)], rule_ids=["SIM101"])
        assert result.ok, result.to_text()


class TestOrderCrossCheck:
    """Static↔dynamic: golden traces replayed against the ordering model."""

    def test_shipped_goldens_hold_the_ordering_model(self):
        check = trace_check()
        assert check.ok, check.errors()
        assert check.flows_checked > 0
        assert check.deliveries_checked > check.flows_checked
        # The oncache goldens exercise the cached datapath.
        assert check.fastpath_observed

    def test_reordered_delivery_is_detected(self, tmp_path):
        golden = tmp_path / "reordered.json"
        golden.write_text(json.dumps({
            "traces": [
                {"flow": 7, "msg": 0,
                 "events": [[10.0, "deliver", "container", 2]]},
                {"flow": 7, "msg": 1,
                 "events": [[5.0, "deliver", "container", 2]]},
            ],
        }))
        check = trace_check([str(golden)])
        assert not check.ok
        assert len(check.inversions) == 1
        name, flow, earlier, later, earlier_t, later_t = check.inversions[0]
        assert (flow, earlier, later) == (7, 0, 1)
        assert later_t < earlier_t

    def test_unknown_fastpath_edge_is_detected(self, tmp_path):
        golden = tmp_path / "wired.json"
        golden.write_text(json.dumps({
            "traces": [
                {"flow": 0, "msg": 0,
                 "events": [
                     [1.0, "exec", "socket", 0],
                     [2.0, "exec", "fastpath", 0],
                 ]},
            ],
        }))
        check = trace_check([str(golden)])
        assert not check.ok
        assert ("socket", "fastpath") in check.unknown_fastpath_edges

    def test_json_schema(self, tmp_path):
        check = trace_check()
        payload = json.loads(json.dumps(check.to_dict()))
        for key in (
            "ok",
            "trace_files",
            "flows_checked",
            "deliveries_checked",
            "errors",
            "warnings",
        ):
            assert key in payload
        assert payload["ok"] is True


class TestUnifiedCheck:
    """`repro check` runs every rule family and the trace step in one pass."""

    def test_fixture_run_fails_order_only(self):
        report = run_check([str(FIXTURES)])
        assert not report.ok
        by_name = {step.name: step for step in report.steps}
        assert set(by_name) == {"rules", "trace", "mypy"}
        assert not by_name["rules"].ok
        assert by_name["trace"].ok
        # mypy is optional in this environment: ok or skipped, never
        # silently absent.
        assert by_name["mypy"].ok or not by_name["mypy"].skipped
        # Every ORD rule fires, and no rule of another family does.
        rules = {f.rule for f in report.analysis.findings}
        assert rules == set(ORDER_RULE_IDS)

    def test_rule_filter_routes_to_owning_analyzer(self):
        report = run_check([str(FIXTURES)], rule_ids=["ORD521"])
        assert not report.ok
        assert report.analysis.rules_run == ["ORD521"]
        assert {f.rule for f in report.analysis.findings} == {"ORD521"}

    def test_unknown_rule_id_raises(self):
        with pytest.raises(ValueError, match="BOGUS99"):
            run_check([str(FIXTURES)], rule_ids=["BOGUS99"])

    def test_json_schema(self):
        report = run_check([str(FIXTURES)])
        payload = json.loads(report.to_json())
        assert payload["ok"] is False
        assert [step["name"] for step in payload["steps"]] == [
            "rules", "trace", "mypy",
        ]
        for step in payload["steps"]:
            assert set(step) == {"name", "ok", "skipped", "summary"}


class TestCli:
    def test_order_src_exits_zero(self, capsys):
        code = main(["check", str(REPO_ROOT / "src"), *rule_flags(ORDER_RULE_IDS)])
        assert code == 0
        assert "check OK" in capsys.readouterr().out

    def test_order_fixtures_exits_one_with_json(self, capsys):
        code = main([
            "check", str(FIXTURES), "--format", "json",
            *rule_flags(ORDER_RULE_IDS),
        ])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["rules"]["counts_by_rule"]["ORD511"] == 2
        assert payload["rules"]["counts_by_rule"]["ORD502"] == 2

    def test_unknown_rule_exits_two(self, capsys):
        code = main(["check", str(FIXTURES), "--rule", "BOGUS99"])
        assert code == 2
        assert "BOGUS99" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["check", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ORDER_RULE_IDS:
            assert rule_id in out

    def test_trace_exits_zero_on_shipped_goldens(self, capsys):
        assert main(["check", str(CLEAN_FILE), "--rule", "ORD511"]) == 0
        assert "trace  ok" in capsys.readouterr().out

    def test_trace_exits_one_on_reordered_golden(
        self, tmp_path, capsys, monkeypatch
    ):
        golden = tmp_path / "reordered.json"
        golden.write_text(json.dumps({
            "traces": [
                {"flow": 0, "msg": 0,
                 "events": [[9.0, "deliver", "container", 1]]},
                {"flow": 0, "msg": 1,
                 "events": [[3.0, "deliver", "container", 1]]},
            ],
        }))
        monkeypatch.setattr(
            repro.validate.golden, "default_golden_dir", lambda: tmp_path
        )
        code = main([
            "check", str(CLEAN_FILE), "--rule", "ORD511", "--format", "json",
        ])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        (error,) = payload["trace"]["errors"]
        assert "msg 1 delivered" in error and "before msg 0" in error

    def test_check_fixtures_exits_one(self, capsys):
        assert main(["check", str(FIXTURES)]) == 1
        assert "check FAILED" in capsys.readouterr().out

    def test_check_src_exits_zero_with_json(self, capsys):
        assert main(["check", str(REPO_ROOT / "src"), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        # Every family ran, the san rules included.
        assert payload["rules"]["rules_run"] == [
            rule.id for rules in FAMILIES.values() for rule in rules
        ]
        assert payload["rules"]["findings"] == []
