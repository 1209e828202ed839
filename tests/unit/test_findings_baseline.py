"""Tests for the suppressed-findings baseline ratchet (satellite of the
simflow PR): render/parse round-trips, the one-way ratchet semantics, CLI
wiring, and the drift check pinning the checked-in baselines to reality.
"""

from pathlib import Path

import pytest

from repro.analysis.baseline import (
    check_baseline,
    inventory_of,
    load_baseline_file,
    normalize_path,
    parse_baseline,
    render_baseline,
)
from repro.analysis.flow import flow_paths
from repro.analysis.lint import lint_paths
from repro.analysis.order import order_paths
from repro.analysis.san import san_paths
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]
LINT_BASELINE = REPO_ROOT / "tools" / "lint_baseline.txt"
FLOW_BASELINE = REPO_ROOT / "tools" / "flow_baseline.txt"
ORDER_BASELINE = REPO_ROOT / "tools" / "order_baseline.txt"
SAN_BASELINE = REPO_ROOT / "tools" / "san_baseline.txt"


def suppressed_result(tmp_path):
    """A run with exactly one suppressed SIM102 finding."""
    path = tmp_path / "mod.py"
    path.write_text(
        "import random\n"
        "x = random.random()  # simlint: disable=SIM102\n"
    )
    return lint_paths([str(path)])


class TestInventoryAndRendering:
    def test_inventory_counts_suppressed_not_kept(self, tmp_path):
        result = suppressed_result(tmp_path)
        assert result.ok
        inventory = inventory_of(result)
        assert len(inventory) == 1
        ((path, rule), count) = next(iter(inventory.items()))
        assert rule == "SIM102"
        assert count == 1
        assert "\\" not in path

    def test_render_parse_round_trip(self, tmp_path):
        result = suppressed_result(tmp_path)
        text = render_baseline(result)
        assert parse_baseline(text) == inventory_of(result)

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
    def test_exact_match_holds(self, tmp_path):
        result = suppressed_result(tmp_path)
        assert check_baseline(result, inventory_of(result)) == []

    def test_new_suppression_fails(self, tmp_path):
        result = suppressed_result(tmp_path)
        errors = check_baseline(result, {})
        assert len(errors) == 1
        assert "new suppressed SIM102" in errors[0]

    def test_stale_entry_fails(self, tmp_path):
        result = suppressed_result(tmp_path)
        frozen = dict(inventory_of(result))
        frozen[("gone.py", "SIM101")] = 1
        errors = check_baseline(result, frozen)
        assert len(errors) == 1
        assert "shrink the baseline" in errors[0]


class TestCheckedInBaselinesMatchReality:
    """Drift check: the committed baseline files must equal the current
    suppression inventory exactly — both directions fail."""

    def test_lint_baseline_is_current(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        result = lint_paths([str(REPO_ROOT / "src")])
        frozen = load_baseline_file(str(LINT_BASELINE))
        errors = check_baseline(result, frozen)
        assert errors == [], "\n".join(errors)

    def test_flow_baseline_is_current(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        result = flow_paths([str(REPO_ROOT / "src")])
        frozen = load_baseline_file(str(FLOW_BASELINE))
        errors = check_baseline(result, frozen)
        assert errors == [], "\n".join(errors)

    def test_lint_baseline_is_nonempty(self):
        # The seed tree carries two deliberate suppressions (rng/run_all);
        # an empty lint baseline means the runner stopped seeing them.
        assert load_baseline_file(str(LINT_BASELINE))

    def test_flow_baseline_is_empty(self):
        # simflow's must-analysis budget: no in-tree suppressions at all.
        assert load_baseline_file(str(FLOW_BASELINE)) == {}

    def test_order_baseline_is_current(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        result = order_paths([str(REPO_ROOT / "src")])
        frozen = load_baseline_file(str(ORDER_BASELINE))
        errors = check_baseline(result, frozen)
        assert errors == [], "\n".join(errors)

    def test_order_baseline_is_empty(self):
        # simorder's acceptance bar: the shard engine and flowcache
        # satisfy every ORD rule with no pragmas at all — the exemptions
        # live in the rules' scope/exempt declarations, with reasons.
        assert load_baseline_file(str(ORDER_BASELINE)) == {}

    def test_san_baseline_is_current(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        result = san_paths([str(REPO_ROOT / "src")])
        frozen = load_baseline_file(str(SAN_BASELINE))
        errors = check_baseline(result, frozen)
        assert errors == [], "\n".join(errors)

    def test_san_baseline_is_empty(self):
        # simsan's acceptance bar: the wire codec, GRO and the
        # flowcache satisfy every OWN rule with no pragmas at all —
        # ownership discipline holds in-tree, not modulo a list of
        # grandfathered violations.
        assert load_baseline_file(str(SAN_BASELINE)) == {}


class TestCli:
    def test_lint_with_baseline_passes(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        code = main([
            "lint", str(REPO_ROOT / "src"),
            "--baseline", str(LINT_BASELINE),
        ])
        assert code == 0

    def test_flow_with_baseline_passes(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        code = main([
            "flow", str(REPO_ROOT / "src"),
            "--baseline", str(FLOW_BASELINE),
        ])
        assert code == 0

    def test_order_with_baseline_passes(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        code = main([
            "order", str(REPO_ROOT / "src"),
            "--baseline", str(ORDER_BASELINE),
        ])
        assert code == 0

    def test_san_with_baseline_passes(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        code = main([
            "san", str(REPO_ROOT / "src"),
            "--baseline", str(SAN_BASELINE),
        ])
        assert code == 0

    def test_new_suppression_fails_against_baseline(self, tmp_path, capsys):
        mod = tmp_path / "mod.py"
        mod.write_text(
            "import random\n"
            "x = random.random()  # simlint: disable=SIM102\n"
        )
        empty = tmp_path / "empty_baseline.txt"
        empty.write_text("# nothing frozen\n")
        code = main(["lint", str(mod), "--baseline", str(empty)])
        assert code == 1
        assert "new suppressed SIM102" in capsys.readouterr().err

    def test_write_baseline_round_trips(self, tmp_path, capsys):
        mod = tmp_path / "mod.py"
        mod.write_text(
            "import random\n"
            "x = random.random()  # simlint: disable=SIM102\n"
        )
        out = tmp_path / "generated.txt"
        assert main(["lint", str(mod), "--write-baseline", str(out)]) == 0
        capsys.readouterr()
        assert main(["lint", str(mod), "--baseline", str(out)]) == 0

    def test_missing_baseline_file_exits_two(self, tmp_path, capsys):
        code = main([
            "lint", str(REPO_ROOT / "src"),
            "--baseline", str(tmp_path / "absent.txt"),
        ])
        assert code == 2
