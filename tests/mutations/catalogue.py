"""The mutation catalogue: planted bugs and the checks that catch them.

Each :class:`Bug` is one small patch to a copy of a real module under
``src/repro``. ``caught_by`` names every check that turns red on it:

* a static rule id: ``repro check``'s rules, run on the mutated file;
* ``golden``, ``invariants``: the validate suites, as tier-1 runs them
  in ``tests/integration/test_scenarios.py``;
* ``determinism``: ``tests/integration/test_determinism.py``;
* ``module``: the unit and property tests of the mutated module
  (:data:`MODULE_TESTS`).

``tests/mutations/test_catalogue.py`` holds the table to the truth.
Tier-1 checks every static catch at its exact line; the slow tier runs
the dynamic checks on each planted copy in a subprocess. The table is
the evidence that each check earns its place: every static rule and
every dynamic column has a row that only it catches, and a check
without one is deleted.

Print the table as it appears in ``docs/architecture.md`` with
``PYTHONPATH=src python tests/mutations/catalogue.py``.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import FrozenSet, Iterable, List, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parents[2]

#: The dynamic checks, in table order.
DYNAMIC = ("golden", "invariants", "determinism", "module")

#: The suites every planted copy runs, whatever module it mutates, in
#: the order tier-1 collects them: state that one suite leaves behind in
#: the process is what the next one starts from.
SUITES = (
    "tests/integration/test_determinism.py",
    "tests/integration/test_scenarios.py",
)

#: The ``module`` column: the unit and property tests of each module.
MODULE_TESTS = {
    "core/balancing.py": (
        "tests/unit/test_balancing_falcon.py",
        "tests/props/test_softirq_props.py",
    ),
    "core/fairshare.py": ("tests/unit/test_fairshare.py",),
    "core/falcon.py": (
        "tests/unit/test_balancing_falcon.py",
        "tests/props/test_softirq_props.py",
    ),
    "hw/cpu.py": (
        "tests/unit/test_cpu.py",
        "tests/props/test_cpu_props.py",
    ),
    "kernel/costs.py": ("tests/unit/test_skb_costs.py",),
    "kernel/defrag.py": ("tests/unit/test_gro_defrag.py",),
    "kernel/flowcache.py": (
        "tests/unit/test_flowcache.py",
        "tests/props/test_flowcache_props.py",
    ),
    "kernel/gro.py": (
        "tests/unit/test_gro_defrag.py",
        "tests/unit/test_device_steps.py",
        "tests/props/test_merge_props.py",
    ),
    "kernel/skb.py": ("tests/unit/test_skb_costs.py",),
    "kernel/softirq.py": (
        "tests/unit/test_softirq.py",
        "tests/props/test_drain_props.py",
    ),
    "kernel/stack.py": (
        "tests/unit/test_flowcache.py",
        "tests/integration/test_stack_paths.py",
    ),
    "kernel/stages.py": ("tests/unit/test_sockets_stages.py",),
    "metrics/cpuacct.py": (
        "tests/unit/test_steering_timers_metrics.py",
        "tests/integration/test_float_sums.py",
    ),
    "sim/engine.py": (
        "tests/unit/test_engine.py",
        "tests/unit/test_scheduler.py",
        "tests/props/test_scheduler_props.py",
        "tests/props/test_engine_props.py",
    ),
    "workloads/sockperf.py": ("tests/unit/test_workloads.py",),
    "workloads/traffic.py": ("tests/unit/test_workloads.py",),
}

_RULE_ID = re.compile(r"[A-Z]+\d{3}")


@dataclass(frozen=True)
class Bug:
    """One planted bug: replace ``old`` (exactly once) by ``new``."""

    name: str
    what: str
    #: Module path relative to ``src/repro``.
    path: str
    old: str
    new: str
    caught_by: FrozenSet[str]
    #: Text of the mutated line each static finding points at.
    flag: str = ""

    @property
    def rules(self) -> List[str]:
        return sorted(c for c in self.caught_by if _RULE_ID.fullmatch(c))


BUGS: Tuple[Bug, ...] = (
    Bug(
        "fairshare_id_tiebreak",
        "`partition_cpus` breaks remainder ties by `id(n)`, not the name",
        "core/fairshare.py",
        "key=lambda n: (ideal[n] - counts[n], weights[n], n))",
        "key=lambda n: (ideal[n] - counts[n], weights[n], id(n)))",
        frozenset({"SIM103"}),
        flag="        name = max(names, key=lambda n:",
    ),
    Bug(
        "falcon_steered_counts_runs",
        "`FalconSteering.select_cpu` adds 1 to `steered` per run of "
        "same-flow packets, not the run's `n` packets",
        "core/falcon.py",
        "        self.steered += n\n",
        "        self.steered += 1\n",
        frozenset({"module"}),
    ),
    Bug(
        "idle_start_skips_queued_work",
        "`Cpu.submit` starts an item at once when its own context's queue "
        "is empty, though another context holds queued work",
        "hw/cpu.py",
        "        item = (label, duration, fn, args)\n"
        "        if self._running is None:\n"
        "            hardirq, softirq, user = queues = self._queues\n"
        "            if not (hardirq or softirq or user):\n",
        "        item = (label, duration, fn, args)\n"
        "        if self._running is None:\n"
        "            hardirq, softirq, user = queues = self._queues\n"
        "            if not queues[context]:\n",
        frozenset({"module"}),
    ),
    Bug(
        "unmonitored_net_rx_charged_twice",
        "`Cpu._start` charges a `net_rx_action` item a second time when no "
        "monitor is attached",
        "hw/cpu.py",
        "            self.monitor.on_cpu_start(self.index, self.sim.now, duration)\n",
        "            self.monitor.on_cpu_start(self.index, self.sim.now, duration)\n"
        "        elif label == \"net_rx_action\":\n"
        "            self.acct.charge(self.index, context, label, duration)\n",
        frozenset({"determinism"}),
    ),
    Bug(
        "copy_to_user_fixed_x1_3",
        "`CostModel.copy_to_user`'s fixed cost is 1.3 times its calibrated value",
        "kernel/costs.py",
        "    copy_to_user: FuncCost = FuncCost(0.85, 0.00015)\n",
        "    copy_to_user: FuncCost = FuncCost(0.85 * 1.3, 0.00015)\n",
        frozenset({"golden"}),
    ),
    Bug(
        "defrag_complete_keeps_entry",
        "`DefragEngine.feed` returns a complete datagram but keeps its entry",
        "kernel/defrag.py",
        "        del self._table[key]\n",
        "",
        frozenset({"invariants", "determinism", "module"}),
    ),
    Bug(
        "flowtable_insert_duplicates",
        "`FlowTable.insert` loses its `if key in self._entries` guard",
        "kernel/flowcache.py",
        "        if key in self._entries:\n"
        "            self._entries.move_to_end(key)\n"
        "            return\n"
        "        self.inserts += 1\n",
        "        self.inserts += 1\n",
        frozenset({"module"}),
    ),
    Bug(
        "invalidate_all_keeps_entries",
        "`invalidate_all` forgets `self._entries.clear()`",
        "kernel/flowcache.py",
        "        self._entries.clear()\n",
        "",
        frozenset({"module"}),
    ),
    Bug(
        "evict_mru",
        "eviction pops the MRU entry (`popitem(last=True)`)",
        "kernel/flowcache.py",
        "popitem(last=False)",
        "popitem(last=True)",
        frozenset({"module"}),
    ),
    Bug(
        "invalidate_uncounted",
        "`invalidate` loses `self.invalidations += 1`",
        "kernel/flowcache.py",
        "            self.invalidations += 1\n",
        "",
        frozenset({"module"}),
    ),
    Bug(
        "access_inserts_at_lookup",
        "`FlowTable.access` populates on a miss, bypassing the ordering gate",
        "kernel/flowcache.py",
        "        self.misses += 1\n"
        "        self._slow_inflight[key] =",
        "        self.misses += 1\n"
        "        self.insert(key)\n"
        "        self._slow_inflight[key] =",
        frozenset({"module"}),
    ),
    Bug(
        "lookup_skips_ledger",
        "`FlowTable.access` grants a hit while slow packets are in flight",
        "kernel/flowcache.py",
        "        if key in self._entries and not self._slow_inflight.get(key):\n",
        "        if key in self._entries:\n",
        frozenset({"module"}),
    ),
    Bug(
        "gro_store_and_forward",
        "GRO holds a segment and forwards it too",
        "kernel/gro.py",
        "            self._held[key] = skb\n"
        "            skb.segs = 1\n"
        "            return None",
        "            self._held[key] = skb\n"
        "            skb.segs = 1\n"
        "            return skb",
        frozenset({"golden", "invariants", "determinism", "module"}),
    ),
    Bug(
        "module_flow_counter",
        "a module-level `itertools.count` flow-id counter in `skb.py`",
        "kernel/skb.py",
        "from repro.kernel.hashing import flow_hash\n",
        "import itertools\n\n"
        "from repro.kernel.hashing import flow_hash\n\n"
        "_flow_ids = itertools.count(1)\n",
        frozenset({"SIM105"}),
        flag="_flow_ids = itertools.count(1)",
    ),
    Bug(
        "softirq_enqueue_without_raise",
        "`enqueue_backlog` queues a packet without raising NET_RX",
        "kernel/softirq.py",
        "                        self.raise_net_rx(target_cpu, napi, from_cpu)\n",
        "                        pass\n",
        frozenset({"golden", "invariants", "module"}),
    ),
    Bug(
        "enqueue_peeks_remote_active",
        "a cross-core `enqueue_backlog` raises NET_RX only if the target "
        "core's `net_rx_active` is clear: a remote read with no IPI",
        "kernel/softirq.py",
        "                    queue.append(skb)\n"
        "                    if napi.scheduled and data.net_rx_active:\n",
        "                    queue.append(skb)\n"
        "                    if remote and data.net_rx_active:\n"
        "                        pass\n"
        "                    elif napi.scheduled and data.net_rx_active:\n",
        frozenset({"golden", "invariants", "module"}),
    ),
    Bug(
        "softirq_entry_literal",
        "`raise_net_rx` schedules the local kick after a literal `1.0` µs, "
        "not `costs.softirq_entry_us`",
        "kernel/softirq.py",
        "            self.machine.sim.schedule(\n"
        "                self.costs.softirq_entry_us, self._kick, cpu_index\n"
        "            )\n",
        "            self.machine.sim.schedule(1.0, self._kick, cpu_index)\n",
        frozenset({"DES203"}),
        flag="            self.machine.sim.schedule(1.0, self._kick, cpu_index)",
    ),
    Bug(
        "backlog_drop_uncounted",
        "`enqueue_backlog` drops on overflow without `napi.drops += 1`",
        "kernel/softirq.py",
        "                    napi.drops += 1\n",
        "",
        frozenset({"module"}),
    ),
    Bug(
        "backlog_drop_unreported",
        "`enqueue_backlog` drops on overflow without telling the monitor",
        "kernel/softirq.py",
        "                    if self.monitor is not None:\n"
        "                        self.monitor.on_terminal(skb, \"backlog_drop\")\n",
        "",
        frozenset({"invariants"}),
    ),
    Bug(
        "costs_override_file",
        "`StackConfig.resolve_costs` loads `costs_override.json` from the "
        "working directory when it exists",
        "kernel/stack.py",
        "    def resolve_costs(self) -> CostModel:\n",
        "    def resolve_costs(self) -> CostModel:\n"
        "        import json\n"
        "        import os\n"
        "\n"
        "        if os.path.exists(\"costs_override.json\"):\n"
        "            with open(\"costs_override.json\") as handle:\n"
        "                return CostModel(**json.load(handle))\n",
        frozenset({"DES202"}),
        flag="            with open(\"costs_override.json\") as handle:",
    ),
    Bug(
        "fastpath_hits_reenter_vxlan",
        "the `fastpath` stage enqueues cache hits to the vxlan stage, not the tail",
        "kernel/stack.py",
        "                    EnqueueTransition(\n"
        "                        tail,\n",
        "                    EnqueueTransition(\n"
        "                        vxlan_stage,\n",
        frozenset({"golden"}),
    ),
    Bug(
        "host_tail_steps_twice",
        "a host-mode stack runs its tail steps (ip, defrag, l4, socket) twice",
        "kernel/stack.py",
        "        ] + stack_tail_steps(costs, self.defrag)\n",
        "        ] + stack_tail_steps(costs, self.defrag)\n"
        "        if not self.is_overlay:\n"
        "            tail_steps += stack_tail_steps(costs, self.defrag)\n",
        frozenset({"module"}),
    ),
    Bug(
        "host_backlog_charged_thrice",
        "a host-mode stack charges `process_backlog` three times its cost",
        "kernel/stack.py",
        "            Step.simple(\"process_backlog\", costs.backlog_dequeue)\n",
        "            Step(\n"
        "                \"process_backlog\",\n"
        "                None,\n"
        "                None,\n"
        "                costs.backlog_dequeue.fixed * (1 if self.is_overlay else 3),\n"
        "                costs.backlog_dequeue.per_byte,\n"
        "            )\n",
        frozenset({"module"}),
    ),
    Bug(
        "falcon_veth_selector_vxlan",
        "Falcon's `netif_rx[veth]` transition is built with "
        "`selector(IFINDEX_VXLAN)`",
        "kernel/stack.py",
        "                    steering.selector(devices.IFINDEX_VETH),\n"
        "                    name=\"netif_rx[veth]\",\n",
        "                    steering.selector(devices.IFINDEX_VXLAN),\n"
        "                    name=\"netif_rx[veth]\",\n",
        frozenset({"golden"}),
    ),
    Bug(
        "socket_deliver_twice",
        "`SocketDeliver.route` delivers each packet to its socket twice",
        "kernel/stages.py",
        "            deliver(skb, cpu_index)\n",
        "            deliver(skb, cpu_index)\n"
        "            deliver(skb, cpu_index)\n",
        frozenset({"golden", "invariants", "determinism"}),
    ),
    Bug(
        "cpuacct_item_total_reassociated",
        "`charge_items` adds the item total to per-CPU busy time after the loop",
        "metrics/cpuacct.py",
        "            busy += duration\n"
        "            total += duration\n"
        "        contexts[context] = context_us\n"
        "        record.busy = busy\n",
        "            total += duration\n"
        "        contexts[context] = context_us\n"
        "        record.busy = busy + total\n",
        frozenset({"module"}),
    ),
    Bug(
        "label_shares_builtin_sum",
        "`label_shares` totals with builtin `sum`, whose float result "
        "depends on the Python version",
        "metrics/cpuacct.py",
        "        total = fold_sum(value for value in deltas.values() if value > 0)\n",
        "        total = sum(value for value in deltas.values() if value > 0)\n",
        frozenset({"module"}),
    ),
    Bug(
        "engine_cpu_budget",
        "`Simulator.run` ends its loop once the process has used 600 s "
        "of CPU time",
        "sim/engine.py",
        "            processed += 1\n"
        "        self.events_processed += processed\n",
        "            processed += 1\n"
        "            import time\n"
        "\n"
        "            if time.process_time() > 600.0:\n"
        "                break\n"
        "        self.events_processed += processed\n",
        frozenset({"SIM101"}),
        flag="            if time.process_time() > 600.0:",
    ),
    Bug(
        "engine_alarm_halt",
        "`Simulator.run` arms a 600 s `signal.alarm` whose handler empties "
        "the event queue",
        "sim/engine.py",
        "        processed = 0\n"
        "        while heap:\n",
        "        import signal\n"
        "\n"
        "        signal.signal(signal.SIGALRM, lambda signum, frame: heap.clear())\n"
        "        signal.alarm(600)\n"
        "        processed = 0\n"
        "        while heap:\n",
        frozenset({"DES201"}),
        flag="        import signal",
    ),
    Bug(
        "sockperf_end_unconverted",
        "`Testbed.run` adds the measure window in ms to a time in µs",
        "workloads/sockperf.py",
        "        end_us = warmup_us + measure_us\n",
        "        end_us = warmup_us + measure_ms\n",
        frozenset({"golden", "invariants"}),
    ),
    Bug(
        "poisson_global_random",
        "`PoissonRate.next_gap_us` draws from the global `random` module, "
        "not the flow's stream",
        "workloads/traffic.py",
        "        return rng.expovariate(1.0 / self.mean_interval_us)\n",
        "        return random.expovariate(1.0 / self.mean_interval_us)\n",
        frozenset({"determinism"}),
    ),
)


def copy_src(root: Path) -> None:
    """Copy the repo's ``src/`` to ``root / "src"``."""
    shutil.copytree(
        REPO_ROOT / "src", root / "src",
        ignore=shutil.ignore_patterns("__pycache__"),
    )


def plant(bug: Bug, root: Path) -> Path:
    """Copy ``src/`` under ``root``, apply ``bug``; return the mutated file."""
    copy_src(root)
    target = root / "src" / "repro" / bug.path
    text = target.read_text()
    assert text.count(bug.old) == 1, f"{bug.name}: anchor not unique: {bug.old!r}"
    target.write_text(text.replace(bug.old, bug.new))
    return target


def line_of(path: Path, needle: str) -> int:
    """1-based line at which ``needle`` (possibly multi-line) starts."""
    text = path.read_text()
    assert text.count(needle) == 1, f"{needle!r} is not unique in {path}"
    return text[: text.index(needle)].count("\n") + 1


def static_findings(path: Path) -> List[Tuple[int, str]]:
    """``(line, rule)`` for every static finding on one file."""
    from repro.analysis.runner import analyze

    return [(f.line, f.rule) for f in analyze([str(path)]).findings]


def column_of(nodeid: str) -> Set[str]:
    """The dynamic check(s) a failed or erroring pytest node belongs to."""
    path, _, test = nodeid.partition("::")
    if path == "tests/integration/test_scenarios.py":
        if not test:  # the module did not even import
            return {"golden", "invariants"}
        for prefix, column in (
            ("test_golden", "golden"),
            ("test_missing_golden", "golden"),
            ("test_invariant", "invariants"),
        ):
            if test.startswith(prefix):
                return {column}
        return {nodeid}  # an unexpected failure shows up by name
    if path == "tests/integration/test_determinism.py":
        return {"determinism"}
    return {"module"}


def dynamic_catchers(
    root: Path, module_tests: Iterable[str]
) -> Tuple[Set[str], str]:
    """Run the dynamic checks on the copy of ``src/`` under ``root``.

    The tests, goldens and pytest config are copied beside it, so the
    copy runs exactly the repo's checks: :data:`SUITES` plus
    ``module_tests``. Returns the caught columns and pytest's output.
    """
    shutil.copytree(
        REPO_ROOT / "tests", root / "tests",
        ignore=shutil.ignore_patterns("__pycache__", "mutations"),
    )
    shutil.copy(REPO_ROOT / "pyproject.toml", root / "pyproject.toml")
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "--tb=no", "-rfE", "--hypothesis-seed=0",
            "--continue-on-collection-errors",
            *SUITES, *module_tests,
        ],
        cwd=root, env=env, capture_output=True, text=True, timeout=600,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode in (0, 1), out
    caught: Set[str] = set()
    for line in out.splitlines():
        word, _, rest = line.partition(" ")
        if word in ("FAILED", "ERROR"):
            caught |= column_of(rest.split(" - ")[0].strip())
    return caught, out


def render_table() -> str:
    """The catalogue as the markdown table in ``docs/architecture.md``."""
    head = ["planted bug", "file", "static rules", *DYNAMIC]
    lines = [
        "| " + " | ".join(head) + " |",
        "|" + "---|" * len(head),
    ]
    for bug in BUGS:
        cells = [
            f"`{bug.name}`: {bug.what}",
            f"`{bug.path}`",
            ", ".join(bug.rules) or "·",
            *("caught" if c in bug.caught_by else "·" for c in DYNAMIC),
        ]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


if __name__ == "__main__":
    print(render_table())
