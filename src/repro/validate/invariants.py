"""Runtime invariant monitors — the simulator's machine-checked safety net.

The whole reproduction stands on the DES being a faithful stand-in for
the kernel rx pipeline; a silent conservation or ordering bug in the
simulator would invalidate every figure. An :class:`InvariantMonitor`
attaches to one host's :class:`~repro.kernel.stack.NetworkStack` and
checks, while the simulation runs:

* **Per-core serialization** — a :class:`~repro.hw.cpu.Cpu` is a
  non-preemptive serialized resource: no two work items may overlap on
  one core, and no item may complete before its busy interval ends.
* **Counter sanity** — interrupt counters only ever increase, and no
  negative amounts are recorded.
* **Non-negative, bounded queues** — socket receive queues never exceed
  their ``rmem`` bound; backlog drop counters never run backwards.
* **Packet conservation** — every wire packet accepted by the NIC is
  eventually delivered, dropped (ring / backlog / socket / unroutable),
  consumed as control traffic, garbage-collected by the defrag timer, or
  still queued somewhere observable. The ledger is exact: at any audit
  the packets alive in the pipeline must be at least the packets visible
  in queues (the difference is in-flight batch state), and at quiescence
  the two must be equal.

Attachment is explicit and hooks are ``None``-guarded at every hot-path
call site, so an unattached run pays one attribute check per hook call
and nothing else. Violations raise :class:`InvariantViolation` immediately —
fail fast, at the event that broke the invariant, with the simulation
clock in the message.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.metrics.counters import NET_RX
from repro.sim.errors import ReproError

#: Terminal outcomes a wire packet can reach, as reported to
#: :meth:`InvariantMonitor.on_terminal` (plus ring drops via
#: :meth:`InvariantMonitor.on_inject` and defrag GC via
#: :meth:`InvariantMonitor.on_defrag_timeout`).
TERMINAL_OUTCOMES = (
    "delivered",
    "socket_drop",
    "unroutable",
    "control",
    "backlog_drop",
    "ring_drop",
    "defrag_timeout",
)

#: Completion-time slack for float accumulation in busy-interval checks.
_TIME_EPS = 1e-6


class InvariantViolation(ReproError):
    """An invariant the simulation must uphold was observed broken."""

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(f"[{kind}] {message}")
        self.kind = kind


class InvariantMonitor:
    """Checks engine/kernel/metrics invariants on one host's stack.

    Usage::

        monitor = InvariantMonitor()
        monitor.attach(stack)
        ... run the workload ...
        monitor.check_conservation()   # at quiescence
        monitor.detach()
    """

    def __init__(self, audit_interval_us: float = 500.0) -> None:
        if audit_interval_us <= 0:
            raise ValueError("audit interval must be positive")
        self.audit_interval_us = audit_interval_us
        self.stack = None
        self.attached = False
        #: Wire packets accepted by the NIC since attach.
        self.generated = 0
        #: Wire packets per terminal outcome since attach.
        self.terminals: Dict[str, int] = {kind: 0 for kind in TERMINAL_OUTCOMES}
        #: Wire segments delivered via the flow-cache fast path (a subset
        #: of ``terminals["delivered"]``), total and per delivering core.
        self.fastpath_delivered = 0
        self.fastpath_by_cpu: Dict[int, int] = {}
        #: Violation messages raised so far (also raised as exceptions).
        self.violations: List[str] = []
        #: Periodic audits completed.
        self.audits = 0
        #: Total individual checks that passed (cheap progress signal).
        self.checks_passed = 0
        self._cpu_busy_until: Dict[int, float] = {}
        self._last_interrupts: Dict[str, int] = {}
        self._last_busy_us: List[float] = []

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    def attach(self, stack) -> "InvariantMonitor":
        """Wire this monitor into ``stack`` and all its components.

        A monitor attaches once: its ledger counts from this moment, and
        the audit armed here keeps running until :meth:`detach`.
        """
        if self.stack is not None:
            raise ValueError("a monitor attaches once")
        self.stack = stack
        self.attached = True
        machine = stack.machine
        # The context fans the hook out to every registered hot-path
        # sink: simulator, stack, softnet, defrag engine, interrupt
        # counters, and each CPU.
        stack.ctx.attach_monitor(self)
        self._last_interrupts = machine.interrupts.snapshot()
        self._last_busy_us = [machine.acct.busy_us(cpu.index) for cpu in machine.cpus]
        stack.sim.schedule(self.audit_interval_us, self._audit)
        return self

    def detach(self) -> None:
        """Unhook from the stack; the run continues unmonitored.

        The pending audit stays queued: it finds the monitor detached,
        returns, and does not re-arm.
        """
        if not self.attached:
            return
        self.stack.ctx.detach_monitor()
        self.attached = False

    def _fail(self, kind: str, message: str) -> None:
        text = f"{message} (sim t={self.stack.sim.now:.3f}us)" if self.stack else message
        self.violations.append(f"[{kind}] {text}")
        raise InvariantViolation(kind, text)

    # ------------------------------------------------------------------
    # CPU hooks (per-core serialization)
    # ------------------------------------------------------------------
    def on_cpu_start(self, cpu_index: int, now: float, duration: float) -> None:
        if duration < 0:
            self._fail(
                "cpu-work",
                f"core {cpu_index} started work with negative duration {duration}",
            )
        busy_until = self._cpu_busy_until.get(cpu_index)
        if busy_until is not None:
            self._fail(
                "core-serialization",
                f"core {cpu_index} started a work item at t={now:.3f} while "
                f"an earlier item runs until t={busy_until:.3f} — two stage "
                f"executions overlap on one CPU",
            )
        self._cpu_busy_until[cpu_index] = now + duration
        self.checks_passed += 1

    def on_cpu_complete(self, cpu_index: int, now: float) -> None:
        busy_until = self._cpu_busy_until.pop(cpu_index, None)
        if busy_until is None:
            return  # attached mid-flight; first completion has no start record
        if now + _TIME_EPS < busy_until:
            self._fail(
                "core-serialization",
                f"core {cpu_index} completed at t={now:.3f} before its busy "
                f"interval ends at t={busy_until:.3f}",
            )
        self.checks_passed += 1

    # ------------------------------------------------------------------
    # Counter hooks
    # ------------------------------------------------------------------
    def on_counter_record(self, kind: str, cpu: int, amount: int) -> None:
        if amount < 0:
            self._fail(
                "counter-monotonicity",
                f"interrupt counter {kind!r} on cpu {cpu} recorded a negative "
                f"amount ({amount})",
            )
        self.checks_passed += 1

    # ------------------------------------------------------------------
    # Packet-conservation hooks
    # ------------------------------------------------------------------
    def on_inject(self, skb, accepted: bool) -> None:
        if skb.segs != 1:
            self._fail(
                "conservation",
                f"freshly injected frame claims {skb.segs} merged segments "
                f"(flow {skb.flow.flow_id} msg {skb.msg_id})",
            )
        if accepted:
            self.generated += 1
        else:
            self.terminals["ring_drop"] += 1
        self.checks_passed += 1

    def on_terminal(self, skb, outcome: str) -> None:
        self.terminals[outcome] += skb.segs
        if self.live_packets() < 0:
            self._fail(
                "conservation",
                f"terminal outcome {outcome!r} for flow {skb.flow.flow_id} "
                f"msg {skb.msg_id} pushed accounted packets past the number "
                f"generated ({self.ledger()})",
            )
        self.checks_passed += 1

    def on_defrag_timeout(self, npackets: int) -> None:
        self.terminals["defrag_timeout"] += npackets
        self.checks_passed += 1

    def on_fastpath_delivery(self, cpu_index: int, segs: int) -> None:
        """``segs`` wire segments reached their socket via the cached
        fast path (reported just before the matching ``delivered``)."""
        if segs <= 0:
            self._fail(
                "conservation",
                f"fast-path delivery reported {segs} segments on core "
                f"{cpu_index}",
            )
        self.fastpath_delivered += segs
        self.fastpath_by_cpu[cpu_index] = (
            self.fastpath_by_cpu.get(cpu_index, 0) + segs
        )
        if self.fastpath_delivered > self.generated:
            self._fail(
                "conservation",
                f"fast-path deliveries ({self.fastpath_delivered}) exceed "
                f"packets generated ({self.generated})",
            )
        self.checks_passed += 1

    # ------------------------------------------------------------------
    # Ledger
    # ------------------------------------------------------------------
    def live_packets(self) -> int:
        """Accepted packets with no terminal outcome yet."""
        return self.generated - sum(self.terminals.values()) + self.terminals["ring_drop"]

    def in_flight_observable(self) -> int:
        """Packets visible in queues (rings, backlogs, GRO, defrag)."""
        stack = self.stack
        total = sum(
            sum(skb.segs for skb in queue.ring) for queue in stack.nic.queues
        )
        for data in stack.softnet.data:
            for napi in data.queues.values():
                total += sum(skb.segs for skb in napi.queue)
        if stack.gro is not None:
            total += stack.gro.held_segs
        total += stack.defrag.pending_packets
        return total

    def ledger(self) -> Dict[str, int]:
        """The conservation ledger, for reports and failure messages."""
        entry = dict(self.terminals)
        entry["generated"] = self.generated
        entry["live"] = self.live_packets()
        entry["fastpath_delivered"] = self.fastpath_delivered
        if self.stack is not None:
            entry["queued_observable"] = self.in_flight_observable()
        return entry

    def pipeline_idle(self) -> bool:
        """True when no packet work is pending anywhere in the stack."""
        stack = self.stack
        if any(len(queue.ring) for queue in stack.nic.queues):
            return False
        for data in stack.softnet.data:
            if data.poll_list:
                return False
            if any(napi.queue for napi in data.queues.values()):
                return False
        if any(cpu.busy or cpu.queued() for cpu in stack.machine.cpus):
            return False
        if any(sock.rx_queue for sock in stack.sockets.sockets()):
            return False
        return True

    def check_conservation(self, strict: bool = True) -> None:
        """Assert the packet ledger balances.

        With ``strict`` (quiescence) every live packet must be visible in
        a queue; mid-run, live may exceed the observable queues by the
        packets captured in executing batches, but never the reverse.
        """
        live = self.live_packets()
        observable = self.in_flight_observable()
        if live < 0 or observable > live or (strict and live != observable):
            self._fail(
                "conservation",
                f"packet ledger does not balance: {live} packets alive vs "
                f"{observable} observable in queues — {self.ledger()}",
            )
        self.checks_passed += 1

    # ------------------------------------------------------------------
    # Periodic audit
    # ------------------------------------------------------------------
    def _audit(self) -> None:
        if not self.attached:
            return
        stack = self.stack
        machine = stack.machine
        current = machine.interrupts.snapshot()
        for kind, value in self._last_interrupts.items():
            if current.get(kind, 0) < value:
                self._fail(
                    "counter-monotonicity",
                    f"interrupt counter {kind!r} went backwards: "
                    f"{value} -> {current.get(kind, 0)}",
                )
        self._last_interrupts = current
        for index in range(len(machine.cpus)):
            busy = machine.acct.busy_us(index)
            if busy + _TIME_EPS < self._last_busy_us[index]:
                self._fail(
                    "cpu-accounting",
                    f"core {index} cumulative busy time went backwards: "
                    f"{self._last_busy_us[index]:.3f} -> {busy:.3f}",
                )
            self._last_busy_us[index] = busy
        for sock in stack.sockets.sockets():
            if sock.queue_depth > sock.rmem_packets:
                self._fail(
                    "queue-bound",
                    f"socket {sock.name!r} receive queue holds "
                    f"{sock.queue_depth} packets, above its rmem bound of "
                    f"{sock.rmem_packets}",
                )
        if stack.softnet.backlog_drops() < 0:
            self._fail("queue-bound", "negative backlog drop count")
        self.check_conservation(strict=False)
        self.audits += 1
        stack.sim.schedule(self.audit_interval_us, self._audit)


def attach_monitor(stack, audit_interval_us: float = 500.0) -> InvariantMonitor:
    """Create an :class:`InvariantMonitor` and attach it to ``stack``."""
    return InvariantMonitor(audit_interval_us=audit_interval_us).attach(stack)


# ----------------------------------------------------------------------
# Deliberate-violation fixtures (the tests use them to prove the
# monitors actually fire).
# ----------------------------------------------------------------------
def corrupt_interrupt_counter(machine, kind: str = NET_RX, amount: int = 1_000_000) -> None:
    """Silently decrement an interrupt counter, bypassing ``record()``.

    Models the class of bug the monitors exist for: state mutated outside
    the accounting discipline. The next periodic audit must flag the
    counter running backwards.
    """
    totals = machine.interrupts._totals
    totals[kind] = totals.get(kind, 0) - amount


def corrupt_conservation_ledger(monitor: InvariantMonitor, amount: int = 1) -> None:
    """Erase accepted packets from the ledger, as a lost-packet bug would.

    The next strict conservation check (or any audit once the imbalance
    exceeds in-flight slack) must flag the ledger.
    """
    monitor.generated -= amount
