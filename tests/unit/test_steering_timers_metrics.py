"""Unit tests for RPS steering, the load tracker, and metrics plumbing."""

import pytest

from repro.hw.cpu import SOFTIRQ, USER
from repro.hw.topology import Machine
from repro.kernel.costs import CostModel
from repro.kernel.skb import FlowKey, Skb
from repro.kernel.steering import NoSteering, Rps
from repro.kernel.timers import LoadTracker
from repro.metrics.counters import NET_RX, InterruptCounters
from repro.metrics.cpuacct import CpuAccounting, CpuWindow
from repro.metrics.report import Table, format_table
from repro.sim.engine import Simulator


def make_skb(sport=1000):
    return Skb(FlowKey.make(1, 2, sport=sport, flow_id=sport), size=64)


class TestRps:
    def test_same_flow_same_cpu(self):
        rps = Rps([1, 2, 3])
        skb = make_skb()
        picks = {rps.get_rps_cpu(skb, 0) for _ in range(10)}
        assert len(picks) == 1

    def test_flows_spread(self):
        rps = Rps([1, 2, 3, 4])
        picks = {rps.get_rps_cpu(make_skb(sport=s), 0) for s in range(64)}
        assert len(picks) == 4

    def test_empty_cpus_rejected(self):
        with pytest.raises(ValueError):
            Rps([])

    def test_no_steering_stays(self):
        assert NoSteering().get_rps_cpu(make_skb(), 5) == 5


class TestLoadTracker:
    def test_load_converges_to_busy_fraction(self):
        sim = Simulator()
        machine = Machine(sim, num_cpus=2)
        tracker = LoadTracker(machine, CostModel(), tick_us=100.0, alpha=0.5)
        tracker.start()

        # Keep CPU 1 half busy: 50us work every 100us.
        def feed():
            machine.cpus[1].submit(SOFTIRQ, "work", 50.0)
            sim.schedule(100.0, feed)

        feed()
        sim.run(until=3000.0)
        assert machine.cpus[1].load == pytest.approx(0.5, abs=0.1)
        assert machine.cpus[0].load < 0.1

    def test_idle_load_decays(self):
        sim = Simulator()
        machine = Machine(sim, num_cpus=1)
        tracker = LoadTracker(machine, CostModel(), tick_us=100.0, alpha=0.5)
        tracker.start()
        machine.cpus[0].load = 1.0
        sim.run(until=2000.0)
        assert machine.cpus[0].load < 0.05

    def test_tick_counts_timer_interrupts(self):
        sim = Simulator()
        machine = Machine(sim, num_cpus=1)
        tracker = LoadTracker(machine, CostModel(), tick_us=100.0)
        tracker.start()
        sim.run(until=1000.0)
        assert tracker.ticks == 10
        assert machine.interrupts.total("TIMER") == 10

    def test_invalid_params(self):
        sim = Simulator()
        machine = Machine(sim, num_cpus=1)
        with pytest.raises(ValueError):
            LoadTracker(machine, CostModel(), tick_us=0.0)
        with pytest.raises(ValueError):
            LoadTracker(machine, CostModel(), alpha=0.0)

    def test_average_load_over_subset(self):
        sim = Simulator()
        machine = Machine(sim, num_cpus=4)
        machine.cpus[2].load = 0.8
        machine.cpus[3].load = 0.4
        assert machine.average_load([2, 3]) == pytest.approx(0.6)
        assert machine.average_load() == pytest.approx(0.3)


class TestCpuAccounting:
    def test_window_utilization(self):
        acct = CpuAccounting()
        acct.charge(0, SOFTIRQ, "before", 100.0)
        window = CpuWindow(acct, start_time=0.0)
        acct.charge(0, SOFTIRQ, "ip_rcv", 300.0)
        acct.charge(0, USER, "copy_to_user", 200.0)
        window.close(1000.0)
        assert window.utilization(0) == pytest.approx(0.5)
        assert window.utilization_context(0, SOFTIRQ) == pytest.approx(0.3)
        assert window.utilization_label(0, "copy_to_user") == pytest.approx(0.2)

    def test_label_shares_sum_to_one(self):
        acct = CpuAccounting()
        window = CpuWindow(acct, start_time=0.0)
        acct.charge(0, SOFTIRQ, "a", 30.0)
        acct.charge(1, SOFTIRQ, "b", 70.0)
        window.close(100.0)
        shares = window.label_shares()
        assert shares["a"] == pytest.approx(0.3)
        assert shares["b"] == pytest.approx(0.7)
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_total_by_label_across_cpus(self):
        acct = CpuAccounting()
        acct.charge(0, SOFTIRQ, "fn", 10.0)
        acct.charge(1, SOFTIRQ, "fn", 15.0)
        assert acct.total_by_label()["fn"] == 25.0


class TestInterruptCounters:
    def test_per_cpu_and_total(self):
        counters = InterruptCounters()
        counters.record(NET_RX, 1)
        counters.record(NET_RX, 1)
        counters.record(NET_RX, 2)
        assert counters.total(NET_RX) == 3
        assert counters.on_cpu(NET_RX, 1) == 2
        assert counters.on_cpu(NET_RX, 0) == 0

    def test_diff(self):
        counters = InterruptCounters()
        counters.record(NET_RX, 0)
        snap = counters.snapshot()
        counters.record(NET_RX, 0, amount=4)
        assert counters.diff(snap) == {NET_RX: 4}


class TestReport:
    def test_table_renders_aligned(self):
        table = Table(["name", "value"], title="T")
        table.add_row("a", 1.5)
        table.add_row("bb", 1500.0)
        text = table.render()
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert "1,500" in text

    def test_row_arity_checked(self):
        table = Table(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_format_table_helper(self):
        text = format_table(["x"], [[1], [2]])
        assert "x" in text and "1" in text and "2" in text
