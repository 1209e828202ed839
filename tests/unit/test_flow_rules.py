"""Tests for the flow rule family (dataflow/typestate).

Same fixture discipline as the lint family: every seeded violation in
``tests/fixtures/flow/`` carries a trailing ``# expect: RULE`` marker and
the tests, running the flow family's rules, demand exact (file, line,
rule) agreement — no extra findings, none missing. The clean twins and
the whole in-tree source must produce zero findings, which is the
family's false-positive budget.
"""

import json
import re
from pathlib import Path

import pytest

from repro.analysis.flow.stagespec import (
    ALLOC,
    DROP_OPS,
    ENQUEUE_OPS,
    FREE,
    HARDIRQ,
    SOCKET,
    stage_order_spec,
)
from repro.analysis.runner import FAMILIES, analyze, rule_by_id
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "flow"

FLOW_RULES = FAMILIES["flow"]
FLOW_RULE_IDS = [rule.id for rule in FLOW_RULES]

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


def actual_findings(paths, rule_ids=FLOW_RULE_IDS):
    result = analyze([str(p) for p in paths], rule_ids=rule_ids)
    return result, {
        (Path(f.path).name, f.line, f.rule) for f in result.findings
    }


class TestFixtureCorpus:
    def test_exact_findings(self):
        result, actual = actual_findings([FIXTURES])
        assert actual == expected_fixture_findings()
        assert not result.ok

    def test_every_flow_rule_is_exercised(self):
        rules_seen = {rule for _, _, rule in expected_fixture_findings()}
        for rule_id in FLOW_RULE_IDS:
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
    """Zero in-tree findings is the false-positive budget of the pass."""

    def test_src_flows_clean(self):
        result, _ = actual_findings([REPO_ROOT / "src"])
        assert result.ok, result.to_text()
        assert result.files_checked > 50

    def test_tests_tree_flows_clean(self):
        # Unit tests manipulate skbs and microsecond timestamps freely;
        # the must-analysis design has to keep quiet there too.
        result, _ = actual_findings([REPO_ROOT / "tests" / "unit"])
        assert result.ok, result.to_text()


class TestRuleCatalogue:
    def test_registry_matches_rules(self):
        assert FLOW_RULE_IDS == [
            "FLOW401", "FLOW402", "FLOW403", "FLOW404", "TIME501", "TIME502",
        ]

    def test_rule_by_id(self):
        for rule in FLOW_RULES:
            assert rule_by_id(rule.id) is rule
            assert rule.title and rule.rationale
        assert rule_by_id("BOGUS99") is None

    def test_single_rule_runs_alone(self):
        result, actual = actual_findings([FIXTURES], rule_ids=["FLOW403"])
        rules = {rule for _, _, rule in actual}
        assert rules <= {"FLOW403", "LINT000", "LINT001"}
        assert ("flow403_bad.py", 6, "FLOW403") in actual
        assert not any(rule == "TIME501" for _, _, rule in actual)

    def test_unknown_rule_id_raises(self):
        with pytest.raises(ValueError, match="BOGUS99"):
            analyze([str(FIXTURES)], rule_ids=["BOGUS99"])


class TestPragmaSuppression:
    """Flow findings honour the shared simlint pragma machinery."""

    def test_disable_pragma_suppresses_flow_finding(self, tmp_path):
        src = (FIXTURES / "flow403_bad.py").read_text()
        patched = src.replace(
            "# expect: FLOW403", "# simlint: disable=FLOW403"
        )
        assert patched != src
        copy = tmp_path / "suppressed.py"
        copy.write_text(patched)
        result, actual = actual_findings([copy])
        assert result.ok, result.to_text()
        assert len(result.suppressed) == 2
        assert {f.rule for f in result.suppressed} == {"FLOW403"}

    def test_flow_ids_are_known_to_lint_meta_rules(self, tmp_path):
        # LINT000 (unknown rule id in pragma) must not fire for flow ids
        # when only the lint family runs.
        copy = tmp_path / "cross.py"
        copy.write_text("x = 1  # simlint: disable=FLOW402\n")
        result = analyze([str(copy)], rule_ids=["SIM101"])
        assert result.ok, result.to_text()


class TestDerivedStageSpec:
    """The stage-order spec is derived from live Stage/Transition objects,
    never hand-coded — these tests pin the derived shape to the shipped
    stack topology."""

    def test_ranks_follow_pipeline_order(self):
        spec = stage_order_spec()
        rank = spec.stage_rank
        assert rank[ALLOC] == 0
        assert rank[ALLOC] < rank[HARDIRQ] < rank["pnic"]
        assert rank["pnic"] < rank["hoststack_outer"] < rank["vxlan"]
        assert rank["vxlan"] < rank["container"] < rank[SOCKET] < rank[FREE]
        # Host mode delivers straight from its host stack.
        assert rank["hoststack"] < rank[SOCKET]
        # The fast-path stage sits between the driver and the container
        # tail; the cache-hit skip is forward motion, never a violation.
        assert rank["pnic"] < rank["fastpath"] < rank["container"]

    def test_edges_come_from_live_transitions(self):
        spec = stage_order_spec()
        # EnqueueTransition hops present in every shipped config.
        assert ("hoststack_outer", "vxlan") in spec.edges
        assert ("vxlan", "container") in spec.edges
        # SocketDeliver contributes the terminal edges.
        assert ("container", SOCKET) in spec.edges
        assert ("hoststack", SOCKET) in spec.edges
        # The flow-cache fork: both sides of FastPathTransition appear.
        assert ("pnic", "fastpath") in spec.edges
        assert ("pnic_gro", "fastpath") in spec.edges
        assert ("fastpath", "container") in spec.edges
        assert ("pnic", "hoststack_outer") in spec.edges  # the miss edge
        # Synthetic envelope.
        assert (ALLOC, HARDIRQ) in spec.edges
        assert (SOCKET, FREE) in spec.edges

    def test_ops_are_harvested_from_step_objects(self):
        spec = stage_order_spec()
        # Step names collected from the live stacks, with the rank of
        # every stage that contains them.
        assert "vxlan_rcv" in spec.ops
        assert spec.ops["vxlan_rcv"].ranks == {spec.stage_rank["hoststack_outer"]}
        assert "br_handle_frame" in spec.ops
        assert spec.ops["br_handle_frame"].ranks == {spec.stage_rank["vxlan"]}
        # netif_rx is reused by several stages — it carries all their ranks.
        assert len(spec.ops["netif_rx"].ranks) >= 2
        # The enqueue/drop primitives are positioned, not hand-ranked.
        for name in ENQUEUE_OPS:
            assert spec.ops[name].ranks, name
        for name in DROP_OPS:
            assert spec.ops[name].ranks == {spec.freed_rank}

    def test_spec_is_cached(self):
        assert stage_order_spec() is stage_order_spec()

    def test_describe_is_json_ready(self):
        payload = stage_order_spec().describe()
        json.dumps(payload)  # must not raise
        assert "stages" in payload and "edges" in payload and "ops" in payload


class TestInterproceduralSummaries:
    """FLOW402/403 see through helper calls via function summaries."""

    def test_helper_that_delivers_poisons_caller(self):
        result, actual = actual_findings([FIXTURES / "flow402_bad.py"])
        # Line 17 re-enqueues after calling a helper that delivered.
        assert ("flow402_bad.py", 17, "FLOW402") in actual

    def test_branch_join_is_must_not_may(self, tmp_path):
        # Freed on only ONE branch -> joined state is {freed, rank} ->
        # a must-analysis stays quiet. This is the zero-false-positive
        # guarantee on real code with conditional frees.
        copy = tmp_path / "maybe.py"
        copy.write_text(
            "def maybe(skb, stack, flag):\n"
            "    if flag:\n"
            "        stack.consume_skb(skb)\n"
            "    else:\n"
            "        stack.ip_rcv(skb)\n"
            "    stack.l4_rcv(skb)\n"
        )
        result, actual = actual_findings([copy])
        assert result.ok, result.to_text()

    def test_both_branches_freed_fires(self, tmp_path):
        copy = tmp_path / "both.py"
        copy.write_text(
            "def both(skb, stack, flag):\n"
            "    if flag:\n"
            "        stack.consume_skb(skb)\n"
            "    else:\n"
            "        stack.free_skb(skb)\n"
            "    stack.l4_rcv(skb)\n"
        )
        _, actual = actual_findings([copy])
        assert ("both.py", 6, "FLOW403") in actual


class TestCli:
    def test_flow_src_exits_zero(self, capsys):
        code = main(["check", str(REPO_ROOT / "src"), *rule_flags(FLOW_RULE_IDS)])
        assert code == 0
        assert "check OK" in capsys.readouterr().out

    def test_flow_fixtures_exits_one_with_json(self, capsys):
        code = main([
            "check", str(FIXTURES), "--format", "json",
            *rule_flags(FLOW_RULE_IDS),
        ])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["rules"]["counts_by_rule"]["FLOW401"] == 3

    def test_unknown_rule_exits_two(self, capsys):
        code = main(["check", str(FIXTURES), "--rule", "BOGUS99"])
        assert code == 2
        assert "BOGUS99" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["check", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in FLOW_RULE_IDS:
            assert rule_id in out

    def test_json_reporter_includes_suppressed(self, tmp_path, capsys):
        copy = tmp_path / "supp.py"
        copy.write_text(
            "def f(skb, stack):\n"
            "    stack.consume_skb(skb)\n"
            "    stack.netif_rx(skb)  # simlint: disable=FLOW403\n"
        )
        assert main(["check", str(copy), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["rules"]["suppressed"] == [
            {"path": str(copy), "line": 3, "rule": "FLOW403"}
        ]
