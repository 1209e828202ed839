"""Tests for ``repro check`` itself: its steps, its report and its exit codes.

The rules' own tests (``test_lint``) drive ``check`` with rules
selected; these run it as CI does, with every rule at once.
"""

import json
from pathlib import Path

from repro.analysis.check import run_check
from repro.analysis.runner import ALL_RULES
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "lint"


class TestUnifiedCheck:
    def test_json_schema(self):
        report = run_check([str(FIXTURES)])
        payload = json.loads(report.to_json())
        assert payload["ok"] is False
        assert [step["name"] for step in payload["steps"]] == [
            "rules", "mypy",
        ]
        for step in payload["steps"]:
            assert set(step) == {"name", "ok", "skipped", "summary"}


class TestCli:
    def test_check_fixtures_exits_one(self, capsys):
        assert main(["check", str(FIXTURES)]) == 1
        assert "check FAILED" in capsys.readouterr().out

    def test_check_src_exits_zero_with_json(self, capsys):
        assert main(["check", str(REPO_ROOT / "src"), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        # Every rule ran.
        assert payload["rules"]["rules_run"] == [rule.id for rule in ALL_RULES]
        assert payload["rules"]["findings"] == []

    def test_json_reporter_includes_suppressed(self, tmp_path, capsys):
        copy = tmp_path / "supp.py"
        copy.write_text(
            "import time\n"
            "\n"
            "stamp = time.time()  # simlint: disable=SIM101\n"
        )
        assert main(["check", str(copy), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["rules"]["suppressed"] == [
            {"path": str(copy), "line": 3, "rule": "SIM101"}
        ]
