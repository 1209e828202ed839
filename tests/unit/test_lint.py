"""Tests for the analyzer's rules and the shared runner/pragma machinery.

The fixture corpus under ``tests/fixtures/lint/`` carries one violation
per rule id, each line marked with a trailing ``# expect: RULE`` comment;
the tests run the rules over it, derive the expected finding set from
those markers and demand exact (file, line, rule) agreement — no extra
findings, none missing.
"""

import json
import re
from pathlib import Path

import pytest

from repro.analysis.pragmas import lint_exempt, parse_pragmas
from repro.analysis.runner import ALL_RULES, analyze, rule_by_id
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "lint"

LINT_RULE_IDS = [rule.id for rule in ALL_RULES]

#: Trailing marker naming the rule(s) a fixture line must trigger.
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


def actual_findings(paths, rule_ids=LINT_RULE_IDS):
    result = analyze([str(p) for p in paths], rule_ids=rule_ids)
    return result, {
        (Path(f.path).name, f.line, f.rule) for f in result.findings
    }


class TestFixtureCorpus:
    def test_exact_findings(self):
        result, actual = actual_findings([FIXTURES])
        assert actual == expected_fixture_findings()
        assert not result.ok

    def test_every_rule_is_exercised(self):
        rules_seen = {rule for _, _, rule in expected_fixture_findings()}
        for rule_id in LINT_RULE_IDS:
            assert rule_id in rules_seen, f"no fixture exercises {rule_id}"
        assert "LINT000" in rules_seen
        assert "LINT001" in rules_seen

    def test_clean_twins_stay_clean(self):
        clean = sorted(FIXTURES.glob("*_clean.py"))
        assert clean, "corpus is missing its clean twins"
        result, actual = actual_findings(clean)
        assert result.ok
        assert actual == set()

    def test_findings_are_deterministic(self):
        first, _ = actual_findings([FIXTURES])
        second, _ = actual_findings([FIXTURES])
        assert first.findings == second.findings


class TestSourceTreeIsClean:
    def test_src_lints_clean(self):
        result, actual = actual_findings([REPO_ROOT / "src"])
        assert result.ok, result.to_text()
        assert result.files_checked > 50


class TestRuleSelection:
    def test_single_rule_runs_alone(self):
        result, actual = actual_findings([FIXTURES], rule_ids=["SIM101"])
        rules = {rule for _, _, rule in actual}
        # Meta findings (LINT000/LINT001) are always on.
        assert rules <= {"SIM101", "LINT000", "LINT001"}
        assert ("sim101_bad.py", 13, "SIM101") in actual
        assert not any(rule == "DES201" for _, _, rule in actual)

    def test_unknown_rule_id_raises(self):
        with pytest.raises(ValueError, match="BOGUS99"):
            analyze([str(FIXTURES)], rule_ids=["BOGUS99"])

    def test_rule_by_id_catalogue(self):
        for rule in ALL_RULES:
            assert rule_by_id(rule.id) is rule
            assert rule.title and rule.rationale


class TestReporters:
    def test_text_format(self):
        result, _ = actual_findings([FIXTURES / "sim101_bad.py"])
        text = result.to_text()
        assert "sim101_bad.py:13:" in text
        assert "SIM101" in text
        assert "3 finding(s)" in text

    def test_json_format(self):
        result, _ = actual_findings([FIXTURES / "sim101_bad.py"])
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["ok"] is False
        assert payload["counts_by_rule"] == {"SIM101": 3}
        assert [(f["rule"], f["line"]) for f in payload["findings"]] == [
            ("SIM101", 13), ("SIM101", 18), ("SIM101", 22),
        ]


class TestCli:
    def test_lint_src_exits_zero(self, capsys):
        code = main(["check", str(REPO_ROOT / "src"), *rule_flags(LINT_RULE_IDS)])
        assert code == 0
        assert "check OK" in capsys.readouterr().out

    def test_lint_fixtures_exits_one_with_json(self, capsys):
        code = main([
            "check", str(FIXTURES), "--format", "json",
            *rule_flags(LINT_RULE_IDS),
        ])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["rules"]["counts_by_rule"]["DES203"] == 2

    def test_unknown_rule_exits_two(self, capsys):
        code = main(["check", str(FIXTURES), "--rule", "BOGUS99"])
        assert code == 2
        assert "BOGUS99" in capsys.readouterr().err

    def test_missing_path_exits_two(self, tmp_path, capsys):
        # A typo in a CI path must not turn the gate into a pass over
        # nothing.
        missing = tmp_path / "nonexistent_dir"
        assert main(["check", str(missing)]) == 2
        assert str(missing) in capsys.readouterr().err

    def test_path_without_python_files_exits_two(self, tmp_path, capsys):
        (tmp_path / "notes.txt").write_text("no code here\n")
        assert main(["check", str(tmp_path)]) == 2
        assert str(tmp_path) in capsys.readouterr().err
        with pytest.raises(ValueError, match="no .py files"):
            analyze([str(tmp_path / "notes.txt")])

    def test_list_rules(self, capsys):
        assert main(["check", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.id in out


class TestPragmas:
    def test_line_and_file_forms(self):
        pragmas = parse_pragmas(
            "# simlint: disable-file=SIM103\n"
            "x = 1  # simlint: disable=SIM101, DES202\n"
        )
        assert pragmas.suppresses("SIM103", 99)
        assert pragmas.suppresses("SIM101", 2)
        assert pragmas.suppresses("DES202", 2)
        assert not pragmas.suppresses("SIM101", 1)
        assert not pragmas.malformed

    def test_wildcard(self):
        pragmas = parse_pragmas("y = 2  # simlint: disable=all\n")
        assert pragmas.suppresses("DES203", 1)

    def test_malformed_ids_are_recorded(self):
        pragmas = parse_pragmas("z = 3  # simlint: disable=nope\n")
        assert pragmas.malformed
        assert not pragmas.suppresses("nope", 1)

    def test_string_literals_are_not_pragmas(self):
        pragmas = parse_pragmas('text = "# simlint: disable=SIM101"\n')
        assert not pragmas.suppresses("SIM101", 1)
        assert not pragmas.malformed

    def test_lint_exempt_requires_reason(self):
        with pytest.raises(TypeError):
            lint_exempt("SIM101")  # reason is keyword-only

        with pytest.raises(ValueError):
            lint_exempt("SIM101", reason="   ")

        with pytest.raises(ValueError):
            lint_exempt("lowercase", reason="bad id shape")

    def test_lint_exempt_marks_function(self):
        @lint_exempt("SIM101", reason="test fixture")
        def helper():
            return 0

        assert helper.__simlint_exempt__ == ("SIM101",)
        assert helper() == 0


class TestPragmaBinding:
    """A standalone ``# simlint: disable=`` comment binds to the next
    statement instead of silently suppressing nothing (regression tests
    for the blank/comment-line binding fix)."""

    def test_standalone_pragma_binds_to_next_statement(self):
        pragmas = parse_pragmas(
            "# simlint: disable=SIM101\n"
            "x = 1\n"
        )
        assert pragmas.suppresses("SIM101", 2)
        assert not pragmas.suppresses("SIM101", 1)
        assert not pragmas.malformed

    def test_pragma_skips_blank_and_comment_lines(self):
        pragmas = parse_pragmas(
            "# simlint: disable=DES202\n"
            "\n"
            "# an unrelated comment\n"
            "y = 2\n"
        )
        assert pragmas.suppresses("DES202", 4)
        assert not pragmas.suppresses("DES202", 2)
        assert not pragmas.suppresses("DES202", 3)

    def test_stacked_standalone_pragmas_accumulate(self):
        pragmas = parse_pragmas(
            "# simlint: disable=SIM101\n"
            "# simlint: disable=SIM103\n"
            "z = 3\n"
        )
        assert pragmas.suppresses("SIM101", 3)
        assert pragmas.suppresses("SIM103", 3)

    def test_trailing_pragma_still_binds_to_its_own_line(self):
        pragmas = parse_pragmas("w = 4  # simlint: disable=SIM101\n")
        assert pragmas.suppresses("SIM101", 1)
        assert not pragmas.suppresses("SIM101", 2)

    def test_pragma_at_eof_is_malformed(self):
        pragmas = parse_pragmas(
            "v = 5\n"
            "# simlint: disable=SIM101\n"
        )
        assert not pragmas.suppresses("SIM101", 1)
        assert not pragmas.suppresses("SIM101", 2)
        assert len(pragmas.malformed) == 1
        assert "no code follows" in pragmas.malformed[0][1]

    def test_standalone_pragma_suppresses_through_the_runner(self, tmp_path):
        src = tmp_path / "mod.py"
        src.write_text(
            "import time\n"
            "# simlint: disable=SIM101\n"
            "x = time.time()\n"
        )
        result = analyze([str(src)])
        assert result.ok, result.to_text()
        assert [f.rule for f in result.suppressed] == ["SIM101"]

    def test_eof_pragma_is_reported_by_the_runner(self, tmp_path):
        src = tmp_path / "mod.py"
        src.write_text("x = 1\n# simlint: disable=SIM101\n")
        result = analyze([str(src)])
        assert [f.rule for f in result.findings] == ["LINT000"]
