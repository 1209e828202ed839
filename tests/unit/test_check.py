"""Tests for ``repro check`` itself: its steps, its report and its exit codes.

Each rule family's own tests (``test_lint``, ``test_flow_rules``,
``test_san_rules``) drive ``check`` with that family's rules selected;
these run it as CI does, with every family at once.
"""

import json
from pathlib import Path

import repro.validate.golden
from repro.analysis.check import run_check
from repro.analysis.runner import FAMILIES
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "san"
#: A small clean input, so the trace-step tests stay cheap.
CLEAN_FILE = REPO_ROOT / "tests" / "fixtures" / "flow" / "flow401_clean.py"


class TestUnifiedCheck:
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
            "check", str(CLEAN_FILE), "--rule", "FLOW401", "--format", "json",
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
        # Every family ran.
        assert payload["rules"]["rules_run"] == [
            rule.id for rules in FAMILIES.values() for rule in rules
        ]
        assert payload["rules"]["findings"] == []
