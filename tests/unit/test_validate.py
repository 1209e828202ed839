"""Unit tests for the validation subsystem (src/repro/validate/).

Covers the golden-trace serializer round-trip, the trace diff engine's
failure messages, and the invariant monitor's individual checks.
"""

import json
from types import SimpleNamespace

import pytest

from repro.validate import (
    InvariantMonitor,
    InvariantViolation,
    SuiteOutcome,
    attach_monitor,
    corrupt_conservation_ledger,
    diff_trace_docs,
    load_golden,
    serialize_traces,
    trace_doc_to_json,
    write_golden,
)


# ----------------------------------------------------------------------
# Fabricated traces (mirror MessageTrace's fields)
# ----------------------------------------------------------------------
def _event(time_us, kind, stage, cpu):
    return SimpleNamespace(time_us=time_us, kind=kind, stage=stage, cpu=cpu)


def _trace(flow_id, msg_id, events):
    return SimpleNamespace(flow_id=flow_id, msg_id=msg_id, events=events)


def _sample_traces():
    return [
        _trace(40, 2, [_event(10.0, "rx", "irq", 0)]),
        _trace(17, 5, [_event(1.25, "rx", "irq", 0), _event(3.5, "app", "socket", 2)]),
        _trace(40, 1, [_event(8.123456789, "rx", "irq", 1)]),
    ]


class TestSerializeTraces:
    def test_flow_ids_remapped_dense_and_sorted(self):
        doc = serialize_traces(_sample_traces())
        keys = [(t["flow"], t["msg"]) for t in doc["traces"]]
        # flow 17 -> index 0, flow 40 -> index 1; msgs ascend within a flow.
        assert keys == [(0, 5), (1, 1), (1, 2)]

    def test_times_rounded_to_fixed_precision(self):
        doc = serialize_traces(_sample_traces())
        by_key = {(t["flow"], t["msg"]): t for t in doc["traces"]}
        assert by_key[(1, 1)]["events"][0][0] == round(8.123456789, 6)

    def test_meta_and_schema_carried(self):
        doc = serialize_traces(_sample_traces(), meta={"scenario": "x"})
        assert doc["schema"] == 1
        assert doc["meta"] == {"scenario": "x"}

    def test_raw_flow_ids_do_not_leak(self):
        """Traces with shifted raw flow ids serialize identically."""
        shifted = [
            _trace(140, 2, [_event(10.0, "rx", "irq", 0)]),
            _trace(117, 5, [_event(1.25, "rx", "irq", 0), _event(3.5, "app", "socket", 2)]),
            _trace(140, 1, [_event(8.123456789, "rx", "irq", 1)]),
        ]
        assert serialize_traces(_sample_traces()) == serialize_traces(shifted)


class TestGoldenRoundTrip:
    def test_write_then_load_is_identity(self, tmp_path):
        doc = serialize_traces(_sample_traces(), meta={"k": 1})
        path = tmp_path / "sub" / "golden.json"
        write_golden(path, doc)
        assert load_golden(path) == doc
        assert diff_trace_docs(doc, load_golden(path)) == []

    def test_json_text_is_canonical(self, tmp_path):
        doc = serialize_traces(_sample_traces())
        text = trace_doc_to_json(doc)
        assert text.endswith("\n")
        # Stable key order: serializing the parsed text reproduces it.
        assert trace_doc_to_json(json.loads(text)) == text


def _mutated(doc):
    return json.loads(json.dumps(doc))


class TestDiffMessages:
    def setup_method(self):
        self.doc = serialize_traces(_sample_traces(), meta={"scenario": "x"})

    def test_identical_docs_no_diffs(self):
        assert diff_trace_docs(self.doc, _mutated(self.doc)) == []

    def test_schema_mismatch_short_circuits(self):
        actual = _mutated(self.doc)
        actual["schema"] = 2
        diffs = diff_trace_docs(self.doc, actual)
        assert diffs == ["schema version mismatch: golden 1 vs run 2"]

    def test_meta_mismatch_reported(self):
        actual = _mutated(self.doc)
        actual["meta"]["scenario"] = "y"
        (diff,) = diff_trace_docs(self.doc, actual)
        assert "meta['scenario']" in diff and "'x'" in diff and "'y'" in diff

    def test_missing_trace_reported(self):
        actual = _mutated(self.doc)
        del actual["traces"][0]
        (diff,) = diff_trace_docs(self.doc, actual)
        assert diff == "trace flow=0 msg=5: in golden but missing from run"

    def test_extra_trace_reported(self):
        actual = _mutated(self.doc)
        actual["traces"].append({"flow": 3, "msg": 9, "events": []})
        (diff,) = diff_trace_docs(self.doc, actual)
        assert diff == "trace flow=3 msg=9: in run but not in golden"

    def test_event_divergence_names_first_differing_event(self):
        actual = _mutated(self.doc)
        actual["traces"][0]["events"][1][3] = 11  # cpu 2 -> 11
        (diff,) = diff_trace_docs(self.doc, actual)
        assert "trace flow=0 msg=5 event 1" in diff
        assert "cpu2" in diff and "cpu11" in diff

    def test_event_count_mismatch_reported(self):
        actual = _mutated(self.doc)
        actual["traces"][0]["events"].append([9.0, "rx", "irq", 0])
        diffs = diff_trace_docs(self.doc, actual)
        assert any("2 events in golden vs 3 in run" in d for d in diffs)

    def test_diff_cap_respected(self):
        actual = _mutated(self.doc)
        for trace in actual["traces"]:
            trace["events"] = [[0.0, "zz", "zz", 99]] * len(trace["events"])
        diffs = diff_trace_docs(self.doc, actual, max_messages=2)
        assert len(diffs) <= 3  # cap + optional truncation marker
        assert diffs[-1] == "... diff truncated"


# ----------------------------------------------------------------------
# Invariant monitor unit checks (no simulation)
# ----------------------------------------------------------------------
def _skb(segs=1, flow_id=7, msg_id=3):
    return SimpleNamespace(segs=segs, flow=SimpleNamespace(flow_id=flow_id), msg_id=msg_id)


class TestMonitorChecks:
    def test_audit_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            InvariantMonitor(audit_interval_us=0)

    def test_core_serialization_rejects_overlap(self):
        monitor = InvariantMonitor()
        monitor.on_cpu_start(3, 0.0, 5.0)
        with pytest.raises(InvariantViolation) as err:
            monitor.on_cpu_start(3, 1.0, 2.0)
        assert err.value.kind == "core-serialization"

    def test_core_serialization_rejects_early_completion(self):
        monitor = InvariantMonitor()
        monitor.on_cpu_start(3, 0.0, 5.0)
        with pytest.raises(InvariantViolation) as err:
            monitor.on_cpu_complete(3, 2.0)
        assert err.value.kind == "core-serialization"

    def test_start_complete_cycle_clean(self):
        monitor = InvariantMonitor()
        monitor.on_cpu_start(3, 0.0, 5.0)
        monitor.on_cpu_complete(3, 5.0)
        monitor.on_cpu_start(3, 6.0, 1.0)  # core free again
        monitor.on_cpu_complete(3, 7.0)

    def test_completion_without_start_tolerated(self):
        # Attaching mid-flight means the first completion has no record.
        InvariantMonitor().on_cpu_complete(0, 1.0)

    def test_negative_counter_amount_rejected(self):
        monitor = InvariantMonitor()
        monitor.on_counter_record("NET_RX", 0, 1)
        with pytest.raises(InvariantViolation) as err:
            monitor.on_counter_record("NET_RX", 0, -1)
        assert err.value.kind == "counter-monotonicity"

    def test_injected_frame_must_be_a_single_segment(self):
        monitor = InvariantMonitor()
        monitor.on_inject(_skb(segs=1), accepted=True)
        assert monitor.generated == 1
        with pytest.raises(InvariantViolation) as err:
            monitor.on_inject(_skb(segs=4), accepted=True)
        assert err.value.kind == "conservation"

    def test_ring_drop_accounted_not_generated(self):
        monitor = InvariantMonitor()
        monitor.on_inject(_skb(), accepted=False)
        assert monitor.generated == 0
        assert monitor.terminals["ring_drop"] == 1
        assert monitor.live_packets() == 0

    def test_terminal_beyond_generated_rejected(self):
        monitor = InvariantMonitor()
        monitor.on_inject(_skb(), accepted=True)
        monitor.on_terminal(_skb(), "delivered")
        assert monitor.live_packets() == 0
        with pytest.raises(InvariantViolation) as err:
            monitor.on_terminal(_skb(), "delivered")
        assert err.value.kind == "conservation"

    def test_gro_merge_accounting_uses_segs(self):
        monitor = InvariantMonitor()
        for _ in range(3):
            monitor.on_inject(_skb(), accepted=True)
        monitor.on_terminal(_skb(segs=3), "delivered")  # GRO-merged super-skb
        assert monitor.live_packets() == 0

    def test_corrupt_ledger_fixture_erases_packets(self):
        monitor = InvariantMonitor()
        for _ in range(5):
            monitor.on_inject(_skb(), accepted=True)
        corrupt_conservation_ledger(monitor, amount=2)
        assert monitor.generated == 3


class TestMonitorAttachment:
    def _bed(self):
        from repro.workloads.sockperf import Testbed

        return Testbed(mode="overlay", seed=0)

    def test_attach_wires_every_hook_and_detach_unwires(self):
        bed = self._bed()
        monitor = attach_monitor(bed.stack)
        assert bed.stack.monitor is monitor
        assert bed.stack.softnet.monitor is monitor
        assert bed.stack.defrag.monitor is monitor
        assert bed.host.machine.interrupts.monitor is monitor
        assert all(cpu.monitor is monitor for cpu in bed.host.machine.cpus)
        monitor.detach()
        assert bed.stack.monitor is None
        assert bed.stack.softnet.monitor is None
        assert bed.stack.defrag.monitor is None
        assert bed.host.machine.interrupts.monitor is None
        assert all(cpu.monitor is None for cpu in bed.host.machine.cpus)

    def test_double_attach_rejected(self):
        bed = self._bed()
        monitor = attach_monitor(bed.stack)
        with pytest.raises(ValueError):
            monitor.attach(bed.stack)
        monitor.detach()
        monitor.detach()  # idempotent
        with pytest.raises(ValueError):  # no second audit chain
            monitor.attach(bed.stack)

    def test_idle_stack_is_quiescent_and_conserving(self):
        bed = self._bed()
        monitor = attach_monitor(bed.stack)
        assert monitor.pipeline_idle()
        monitor.check_conservation(strict=True)
        monitor.detach()


class TestSuiteOutcome:
    def test_render_ok(self):
        outcome = SuiteOutcome("golden", "x", True)
        assert outcome.render() == "[golden] x: ok"

    def test_render_failure_indents_details(self):
        outcome = SuiteOutcome("invariants", "x", False, ["a", "b"])
        assert outcome.render() == "[invariants] x: FAIL\n    a\n    b"
