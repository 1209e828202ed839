"""Tests for the ``trace`` step of ``repro check``.

It holds the golden traces against the static stage graph (stage edges
and fastpath edges) and against per-flow delivery order.
"""

import json
from pathlib import Path

import repro.validate.golden
from repro.analysis.trace import _single_packet, _trace_edges, trace_check
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]
#: A small clean input, so the CLI tests exercise the trace step cheaply.
CLEAN_FILE = REPO_ROOT / "tests" / "fixtures" / "flow" / "flow401_clean.py"


def make_trace_file(tmp_path, events_lists, name="synthetic.json"):
    doc = {
        "traces": [
            {"flow_id": i, "msg_id": 0, "events": events}
            for i, events in enumerate(events_lists)
        ]
    }
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestHelpers:
    def test_single_packet_accepts_unique_stage_visits(self):
        events = [
            [1.0, "enqueue", "pnic", 0],
            [2.0, "exec", "pnic", 0],
            [3.0, "deliver", "socket", 0],
        ]
        assert _single_packet(events)

    def test_single_packet_rejects_repeated_pairs(self):
        events = [
            [1.0, "exec", "pnic", 0],
            [2.0, "exec", "pnic", 1],  # second packet's pnic pass
        ]
        assert not _single_packet(events)

    def test_trace_edges_from_exec_chain(self):
        events = [
            [1.0, "exec", "pnic", 0],
            [2.0, "exec", "hoststack_outer", 1],
            [3.0, "deliver", "socket", 1],
        ]
        assert _trace_edges(events) == {
            ("pnic", "hoststack_outer"),
            ("hoststack_outer", "socket"),
        }

    def test_enqueue_witnesses_edge_without_moving(self):
        # enqueue names the *target* before the hop executes; the edge is
        # witnessed once, not duplicated when exec follows.
        events = [
            [1.0, "exec", "pnic", 0],
            [2.0, "enqueue", "hoststack_outer", 0],
            [3.0, "exec", "hoststack_outer", 2],
        ]
        assert _trace_edges(events) == {("pnic", "hoststack_outer")}

    def test_events_are_time_sorted_before_replay(self):
        events = [
            [3.0, "deliver", "socket", 1],
            [1.0, "exec", "pnic", 0],
            [2.0, "exec", "hoststack", 0],
        ]
        assert _trace_edges(events) == {
            ("pnic", "hoststack"),
            ("hoststack", "socket"),
        }


class TestCrossCheck:
    def test_golden_traces_match_static_graph(self):
        result = trace_check()
        assert result.ok, result.errors()
        assert result.traces_replayed > 0
        assert result.missing_edges == []
        # Every observed edge is a real static edge.
        assert result.observed

    def test_default_trace_dir_exists(self):
        golden_dir = Path(repro.validate.golden.default_golden_dir())
        assert golden_dir.is_dir()
        assert list(golden_dir.glob("*.json"))

    def test_bogus_runtime_edge_is_an_error(self, tmp_path):
        # A trace claiming the packet went socket -> pnic (backwards)
        # must be reported as missing from the static graph.
        path = make_trace_file(
            tmp_path,
            [[
                [1.0, "deliver", "socket", 0],
                [2.0, "exec", "pnic", 0],
            ]],
        )
        result = trace_check([str(path)])
        assert not result.ok
        assert ("socket", "pnic") in result.missing_edges
        assert any("socket->pnic" in error for error in result.errors())
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["ok"] is False
        assert any("socket->pnic" in error for error in payload["errors"])

    def test_multi_packet_traces_are_skipped(self, tmp_path):
        path = make_trace_file(
            tmp_path,
            [[
                [1.0, "exec", "pnic", 0],
                [2.0, "exec", "pnic", 1],
                [3.0, "exec", "socket", 0],  # would be a bogus edge
            ]],
        )
        result = trace_check([str(path)])
        assert result.traces_skipped == 1
        assert result.traces_replayed == 0
        assert result.ok

    def test_unobserved_static_edges_are_warnings_not_errors(self, tmp_path):
        path = make_trace_file(
            tmp_path,
            [[
                [1.0, "exec", "pnic", 0],
                [2.0, "exec", "hoststack_outer", 1],
            ]],
        )
        result = trace_check([str(path)])
        assert result.ok
        assert result.unobserved_edges  # most static edges unexercised
        assert any("never observed" in w for w in result.warnings())


class TestOrderCrossCheck:
    """Golden traces replayed for per-flow order and fastpath edges."""

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

    def test_json_schema(self):
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


class TestCli:
    def test_trace_default_goldens_exit_zero(self, capsys):
        assert main(["check", str(CLEAN_FILE), "--rule", "FLOW401"]) == 0
        out = capsys.readouterr().out
        assert "trace  ok" in out
        assert "check OK" in out

    def test_trace_bad_file_exits_one(self, tmp_path, capsys, monkeypatch):
        make_trace_file(
            tmp_path,
            [[
                [1.0, "deliver", "socket", 0],
                [2.0, "exec", "pnic", 0],
            ]],
        )
        monkeypatch.setattr(
            repro.validate.golden, "default_golden_dir", lambda: tmp_path
        )
        assert main(["check", str(CLEAN_FILE), "--rule", "FLOW401"]) == 1
        out = capsys.readouterr().out
        assert "socket->pnic" in out
        assert "trace  FAILED" in out

    def test_trace_json_format(self, capsys):
        code = main([
            "check", str(CLEAN_FILE), "--rule", "FLOW401", "--format", "json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trace"]["ok"] is True
        assert payload["trace"]["traces_replayed"] > 0
