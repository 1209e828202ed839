"""Unit tests for RPS steering, the load tracker, and metrics plumbing."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.hw.cpu import HARDIRQ, SOFTIRQ, USER
from repro.hw.topology import Machine
from repro.kernel.costs import CostModel
from repro.kernel.skb import FlowKey, Skb
from repro.kernel.steering import NoSteering, Rps
from repro.kernel.timers import LoadTracker
from repro.metrics.counters import NET_RX, InterruptCounters
from repro.metrics.cpuacct import CpuAccounting, CpuWindow
from repro.metrics.report import Table, format_table
from repro.sim.engine import Simulator


LABELS = ("skb_alloc", "ip_rcv", "udp_rcv", "netif_rx")


def make_skb(sport=1000):
    return Skb(FlowKey.make(1, 2, sport=sport, flow_id=sport), size=64)


class TestRps:
    def test_same_flow_same_cpu(self):
        rps = Rps([1, 2, 3])
        skb = make_skb()
        picks = {rps.get_rps_cpu(skb, 0, 1) for _ in range(10)}
        assert len(picks) == 1

    def test_flows_spread(self):
        rps = Rps([1, 2, 3, 4])
        picks = {rps.get_rps_cpu(make_skb(sport=s), 0, 1) for s in range(64)}
        assert len(picks) == 4

    def test_empty_cpus_rejected(self):
        with pytest.raises(ValueError):
            Rps([])

    def test_no_steering_stays(self):
        assert NoSteering().get_rps_cpu(make_skb(), 5, 1) == 5


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


#: Work items as ``(cpu, context, [(label, µs), ...], call, snapshot)``:
#: ``call`` says how the item is charged (``charge`` once per pair, as a
#: run of single-label items is, or ``charge_items`` once), and
#: ``snapshot`` whether the accounting is snapshotted after it. An empty
#: charges list is allowed, and values carry enough digits for float sums
#: to depend on their association.
charged_items = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),
        st.sampled_from([HARDIRQ, SOFTIRQ, USER]),
        st.lists(
            st.tuples(
                st.sampled_from(LABELS),
                st.floats(min_value=0.0, max_value=5.0),
            ),
            max_size=6,
        ),
        st.sampled_from(["charge", "charge_items"]),
        st.booleans(),
    ),
    max_size=30,
)


def stored_views(acct):
    """Each attribute of ``acct`` as nested ``(key, value)`` lists, so that
    ``==`` compares values and key order at every level (per-CPU records
    included, slot by slot)."""

    def ordered(value):
        if isinstance(value, dict):
            return [(key, ordered(item)) for key, item in value.items()]
        if isinstance(value, list):
            return [ordered(item) for item in value]
        if hasattr(value, "__slots__"):
            return [(name, ordered(getattr(value, name))) for name in value.__slots__]
        return value

    return [(name, ordered(value)) for name, value in vars(acct).items()]


def query_views(acct):
    """Every query's answer over the drawn CPUs, contexts and labels."""
    return (
        list(acct.cpus()),
        [
            (
                acct.busy_us(cpu),
                [acct.busy_us_context(cpu, c) for c in (HARDIRQ, SOFTIRQ, USER)],
                [acct.busy_us_label(cpu, label) for label in LABELS],
            )
            for cpu in range(3)
        ],
        list(acct.total_by_label().items()),
        stored_views(acct),
    )


class TestCpuAccounting:
    # On a busy time of 1e16 each 1.0 rounds away (half an ulp, ties to
    # even), so the left fold stays at 1e16. A compensated sum
    # (``math.fsum``, or ``sum`` from Python 3.12) gives
    # 1.0000000000000002e16, and so does adding the item's total once.
    @example([(0, SOFTIRQ, [("skb_alloc", 1e16)], "charge", False),
              (0, SOFTIRQ, [("ip_rcv", 1.0), ("udp_rcv", 1.0)], "charge_items", True)])
    @given(charged_items)
    def test_charge_items_is_bit_exact_per_pair(self, items):
        """``charge`` and ``charge_items`` calls interleaved on one
        accounting equal one ``charge`` per pair exactly (``==``, not
        approx), with the same key order; a snapshot taken between them
        holds exactly the state at that point, and is a copy."""
        mixed, per_pair = CpuAccounting(), CpuAccounting()
        snapshots = []
        for cpu, context, charges, call, snapshot in items:
            names = [label for label, _duration in charges]
            costs = [duration for _label, duration in charges]
            if call == "charge_items":
                total = mixed.charge_items(cpu, context, names, costs)
            else:
                total = 0.0
                for label, duration in charges:
                    mixed.charge(cpu, context, label, duration)
                    total += duration
            expected = 0.0
            for label, duration in charges:
                per_pair.charge(cpu, context, label, duration)
                expected += duration
            assert total == expected
            if snapshot:
                snapshots.append((mixed.snapshot(), query_views(per_pair)))
        assert query_views(mixed) == query_views(per_pair)
        for copy, at_snapshot in snapshots:
            assert query_views(copy) == at_snapshot
        copy = mixed.snapshot()
        copy.charge(0, SOFTIRQ, "after_snapshot", 1.0)
        assert query_views(mixed) == query_views(per_pair)

    def test_charge_starts_each_sum_at_zero(self):
        acct = CpuAccounting()
        acct.charge(1, USER, "fn", 2.5)
        acct.charge_items(1, SOFTIRQ, ["fn", "other"], [1.0, 0.5])
        assert acct.busy_us(1) == 4.0
        assert [acct.busy_us_context(1, c) for c in (HARDIRQ, SOFTIRQ, USER)] == [
            0.0, 1.5, 2.5,
        ]
        assert acct.busy_us_label(1, "fn") == 3.5
        assert acct.busy_us(0) == 0.0 and acct.busy_us_context(0, USER) == 0.0
        assert list(acct.cpus()) == [1]

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
