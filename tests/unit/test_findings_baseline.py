"""Tests for the suppressed-findings baseline ratchet of ``repro check``:
render/parse round-trips, the one-way ratchet semantics, its scope (rules
that ran, paths that were analyzed, keys relative to the repo root from
any working directory), CLI wiring, and the drift check pinning the
checked-in baseline to reality.
"""

from pathlib import Path

import pytest

from repro.analysis import baseline
from repro.analysis.baseline import (
    check_baseline,
    inventory_of,
    load_baseline_file,
    normalize_path,
    parse_baseline,
    render_baseline,
)
from repro.analysis.check import run_check
from repro.analysis.runner import analyze
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]
BASELINE = REPO_ROOT / "tools" / "analysis_baseline.txt"

SUPPRESSED_SOURCE = (
    "import random\n"
    "x = random.random()  # simlint: disable=SIM102\n"
)


@pytest.fixture
def tmp_repo(tmp_path, monkeypatch):
    """``tmp_path`` stands in for the repository root and its baseline."""
    frozen = tmp_path / "tools" / "analysis_baseline.txt"
    frozen.parent.mkdir()
    frozen.write_text("# nothing frozen\n")
    monkeypatch.setattr(baseline, "REPO_ROOT", tmp_path)
    monkeypatch.setattr(baseline, "BASELINE_PATH", frozen)
    return tmp_path


def suppressed_result(root):
    """A run over ``root/pkg`` with exactly one suppressed SIM102 finding."""
    package = root / "pkg"
    package.mkdir(exist_ok=True)
    (package / "mod.py").write_text(SUPPRESSED_SOURCE)
    return analyze([str(package)])


class TestInventoryAndRendering:
    def test_inventory_counts_suppressed_not_kept(self, tmp_repo):
        result = suppressed_result(tmp_repo)
        assert result.ok
        assert inventory_of(result) == {("pkg/mod.py", "SIM102"): 1}

    def test_render_parse_round_trip(self, tmp_repo):
        inventory = inventory_of(suppressed_result(tmp_repo))
        assert parse_baseline(render_baseline(inventory)) == inventory

    def test_parse_rejects_malformed_lines(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_baseline("src/x.py::SIM101\n")
        with pytest.raises(ValueError, match="malformed"):
            parse_baseline("src/x.py::SIM101::lots\n")

    def test_parse_skips_comments_and_blanks(self):
        assert parse_baseline("# header\n\n") == {}

    def test_normalize_path(self):
        assert normalize_path("./src/x.py") == "src/x.py"
        assert normalize_path("src\\x.py") == "src/x.py"


class TestRatchetSemantics:
    def test_exact_match_holds(self, tmp_repo):
        result = suppressed_result(tmp_repo)
        assert check_baseline(result, inventory_of(result)) == []

    def test_new_suppression_fails(self, tmp_repo):
        errors = check_baseline(suppressed_result(tmp_repo), {})
        assert len(errors) == 1
        assert "new suppressed SIM102" in errors[0]

    def test_stale_entry_fails(self, tmp_repo):
        result = suppressed_result(tmp_repo)
        frozen = dict(inventory_of(result))
        frozen[("pkg/gone.py", "SIM101")] = 1
        errors = check_baseline(result, frozen)
        assert len(errors) == 1
        assert "pkg/gone.py" in errors[0]
        assert "shrink the baseline" in errors[0]

    def test_files_outside_the_repo_are_not_ratcheted(self, tmp_path):
        result = suppressed_result(tmp_path)
        assert [f.rule for f in result.suppressed] == ["SIM102"]
        assert inventory_of(result) == {}
        assert check_baseline(result, {}) == []


class TestRatchetScope:
    """The ratchet compares only what the run could have produced, and
    means the same from any working directory."""

    def test_rules_that_did_not_run_cause_no_drift(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        report = run_check(["src"], rule_ids=["SIM101"])
        assert report.baseline_errors == []
        assert report.ok, report.to_text()

    def test_ratchet_holds_from_another_working_directory(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        source = str(REPO_ROOT / "src")
        report = run_check([source], rule_ids=["SIM101", "SIM102"])
        assert report.baseline_errors == []
        # Drop the rng.py entry: its suppression is now new, seen from here.
        drifted = tmp_path / "baseline.txt"
        drifted.write_text("src/repro/experiments/run_all.py::SIM101::1\n")
        monkeypatch.setattr(baseline, "BASELINE_PATH", drifted)
        report = run_check([source], rule_ids=["SIM101", "SIM102"])
        assert not report.ok
        assert report.baseline_errors == [
            "src/repro/sim/rng.py: 1 new suppressed SIM102 finding not in "
            "the baseline (fix the code or regenerate the baseline "
            "deliberately)"
        ]


class TestCheckedInBaselineMatchesReality:
    def test_baseline_is_current(self):
        """Drift check: the committed baseline equals the suppression
        inventory of ``src`` exactly — both directions fail. It holds the
        tree's two deliberate lint suppressions (rng/run_all); the flow,
        order and san families need none."""
        frozen = load_baseline_file(BASELINE)
        errors = check_baseline(analyze([str(REPO_ROOT / "src")]), frozen)
        assert errors == [], "\n".join(errors)
        assert sorted(frozen) == [
            ("src/repro/experiments/run_all.py", "SIM101"),
            ("src/repro/sim/rng.py", "SIM102"),
        ]


class TestCli:
    def test_check_with_baseline_passes(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = main(["check", str(REPO_ROOT / "src"), "--rule", "SIM102"])
        assert code == 0, capsys.readouterr().out

    def test_new_suppression_fails_against_baseline(self, tmp_repo, capsys):
        mod = tmp_repo / "mod.py"
        mod.write_text(SUPPRESSED_SOURCE)
        assert main(["check", str(mod)]) == 1
        assert "new suppressed SIM102" in capsys.readouterr().out

    def test_write_baseline_round_trips(self, tmp_repo, capsys):
        mod = tmp_repo / "mod.py"
        mod.write_text(SUPPRESSED_SOURCE)
        assert main(["check", str(mod), "--write-baseline"]) == 0
        assert "mod.py::SIM102::1" in baseline.BASELINE_PATH.read_text()
        capsys.readouterr()
        assert main(["check", str(mod)]) == 0

    def test_write_baseline_keeps_entries_the_run_does_not_cover(
        self, tmp_repo, capsys
    ):
        baseline.BASELINE_PATH.write_text("elsewhere/x.py::SIM101::1\n")
        mod = tmp_repo / "mod.py"
        mod.write_text(SUPPRESSED_SOURCE)
        assert main(["check", str(mod), "--write-baseline"]) == 0
        assert load_baseline_file(baseline.BASELINE_PATH) == {
            ("elsewhere/x.py", "SIM101"): 1,
            ("mod.py", "SIM102"): 1,
        }

    def test_missing_baseline_file_exits_two(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(baseline, "BASELINE_PATH", tmp_path / "absent.txt")
        code = main(["check", str(REPO_ROOT / "src" / "repro" / "cli.py")])
        assert code == 2
        assert "absent.txt" in capsys.readouterr().err
