"""Tests for the runtime ownership sanitizer (``REPRO_SANITIZE=1``).

Three layers, mirroring the module's contract:

* ledger semantics — acquire/release bookkeeping, double-acquire and
  untracked-release errors, pending residue;
* instrumentation — the flow table and the cluster record path acquire
  and release at the sanctioned sites;
* non-interference — a sanitized golden run produces **byte-identical**
  trace documents (the ledger never schedules, never reads the clock),
  and every site it reports is in the static catalog the trace step
  of ``repro check`` scans for.
"""

import os

import pytest

from repro.analysis.trace import static_site_catalog
from repro.kernel.flowcache import FlowTable
from repro.overlay.cluster import run_cluster, udp_ring_spec
from repro.validate.golden import run_golden_scenario, trace_doc_to_json
from repro.validate.harness import sanitize_outcome
from repro.validate.sanitize import (
    OwnershipLedger,
    current_ledger,
    reset_ledger,
    sanitize_enabled,
    sanitizing,
)


class TestLedgerSemantics:
    def test_acquire_release_balances(self):
        ledger = OwnershipLedger()
        ledger.acquire("record", (0, 0), "outbox.emit")
        assert ledger.live_count("record") == 1
        ledger.release("record", (0, 0), "world.inject")
        assert ledger.live_count() == 0
        report = ledger.report()
        assert report.ok
        assert report.acquired == {"outbox.emit": 1}
        assert report.released == {"world.inject": 1}
        assert report.sites() == {"outbox.emit", "world.inject"}

    def test_double_acquire_is_an_error(self):
        ledger = OwnershipLedger()
        ledger.acquire("flow_entry", (1, (2, 3)), "flowtable.insert")
        ledger.acquire("flow_entry", (1, (2, 3)), "other.insert")
        report = ledger.report()
        assert not report.ok
        assert len(report.errors) == 1
        assert "two owners" in report.errors[0]
        assert "flowtable.insert" in report.errors[0]

    def test_untracked_release_is_an_error(self):
        ledger = OwnershipLedger()
        ledger.release("record", (0, 99), "world.inject")
        report = ledger.report()
        assert not report.ok
        assert "untracked" in report.errors[0]

    def test_live_entries_and_records_are_pending(self):
        ledger = OwnershipLedger()
        ledger.acquire("flow_entry", (1, (2, 3)), "flowtable.insert")
        ledger.acquire("record", (0, 0), "outbox.emit")
        report = ledger.report()
        assert report.ok
        assert report.pending == {"flow_entry": 1, "record": 1}
        assert "2 pending" in report.render()[0]


class TestEnvPlumbing:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        reset_ledger()
        assert not sanitize_enabled()
        assert current_ledger() is None
        assert FlowTable(capacity=4)._san is None
        assert sanitize_outcome() is None

    def test_zero_means_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert not sanitize_enabled()

    def test_sanitizing_restores_previous_state(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        reset_ledger()
        with sanitizing() as ledger:
            assert sanitize_enabled()
            assert current_ledger() is ledger
        assert not sanitize_enabled()
        assert current_ledger() is None


class TestFlowTableInstrumentation:
    def test_insert_evict_invalidate_lifecycle(self):
        with sanitizing() as ledger:
            table = FlowTable(capacity=1)
            first = (1, 2, 17, 1000, 2000)
            second = (2, 3, 17, 1000, 2000)
            table.insert(first)
            assert ledger.live_count("flow_entry") == 1
            table.insert(second)  # capacity 1: evicts first
            assert ledger.live_count("flow_entry") == 1
            assert table.invalidate(second)
            assert ledger.live_count("flow_entry") == 0
            report = ledger.report()
        assert report.ok, report.render()
        assert report.acquired == {"flowtable.insert": 2}
        assert report.released == {
            "flowtable.evict": 1,
            "flowtable.invalidate": 1,
        }

    def test_refreshing_insert_does_not_double_acquire(self):
        with sanitizing() as ledger:
            table = FlowTable(capacity=4)
            key = (1, 2, 17, 1000, 2000)
            table.insert(key)
            table.insert(key)  # LRU refresh of a live entry, not a new one
            table.invalidate_all()
            report = ledger.report()
        assert report.ok, report.render()
        assert report.acquired == {"flowtable.insert": 1}
        assert report.released == {"flowtable.invalidate_all": 1}

    def test_invalidate_ip_releases_per_key(self):
        with sanitizing() as ledger:
            table = FlowTable(capacity=8)
            table.insert((7, 2, 17, 1000, 2000))
            table.insert((3, 7, 17, 1000, 2000))
            table.insert((4, 5, 17, 1000, 2000))
            assert table.invalidate_ip(7) == 2
            report = ledger.report()
        assert report.ok, report.render()
        assert report.released == {"flowtable.invalidate_ip": 2}
        assert report.pending == {"flow_entry": 1}


class TestClusterRecordInstrumentation:
    def test_record_path_balances_across_shard_counts(self):
        spec = udp_ring_spec(
            num_hosts=3,
            message_size=256,
            rate_pps=20_000.0,
            warmup_us=200.0,
            duration_us=1_000.0,
            flowcache=True,
            flowcache_capacity=1,
            churn=((600.0, 1),),
        )
        for shards in (1, 2):
            with sanitizing() as ledger:
                run_cluster(spec, shards=shards)
                report = ledger.report()
            assert report.ok, (shards, report.render())
            emitted = report.acquired.get("outbox.emit", 0)
            injected = report.released.get("world.inject", 0)
            pending = report.pending.get("record", 0)
            assert emitted > 0
            assert emitted == injected + pending


class TestGoldenByteIdentity:
    """The sanitizer must be a pure observer: traces are byte-identical
    with it on, and the run it watched reports no leaks."""

    @pytest.mark.parametrize("name", ["udp_fixed_vanilla", "udp_fixed_oncache"])
    def test_host_golden_identical_and_leak_free(self, name):
        plain = trace_doc_to_json(run_golden_scenario(name))
        with sanitizing() as ledger:
            sanitized = trace_doc_to_json(run_golden_scenario(name))
            report = ledger.report()
        assert sanitized == plain
        assert report.ok, report.render()

    def test_cluster_golden_identical_and_leak_free(self):
        name = "cluster_udp_ring_oncache_churn"  # exercises all kinds
        plain = trace_doc_to_json(run_golden_scenario(name))
        with sanitizing() as ledger:
            sanitized = trace_doc_to_json(run_golden_scenario(name))
            report = ledger.report()
        assert sanitized == plain
        assert report.ok, report.render()
        # The churn scenario exercises both object kinds.
        assert report.acquired.get("flowtable.insert", 0) > 0
        assert report.acquired.get("outbox.emit", 0) > 0

    def test_golden_sites_are_in_the_static_catalog(self):
        with sanitizing() as ledger:
            run_golden_scenario("cluster_udp_ring_oncache_churn")
            report = ledger.report()
        unknown = report.sites() - static_site_catalog()
        assert not unknown, sorted(unknown)


class TestHarnessOutcome:
    def test_outcome_row_when_sanitizing(self):
        with sanitizing():
            table = FlowTable(capacity=4)
            table.insert((1, 2, 17, 1000, 2000))
            table.invalidate_all()
            outcome = sanitize_outcome()
        assert outcome is not None
        assert outcome.suite == "sanitize"
        assert outcome.ok
        assert any("balanced" in line for line in outcome.details)

    def test_outcome_reports_errors(self):
        with sanitizing() as ledger:
            ledger.release("record", (0, 0), "world.inject")
            outcome = sanitize_outcome()
        assert outcome is not None
        assert not outcome.ok
        assert any("untracked" in line for line in outcome.details)

    def test_no_row_when_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        reset_ledger()
        assert sanitize_outcome() is None
