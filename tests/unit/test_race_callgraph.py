"""Call-graph resolution tests for the RACE301 race detector.

The detector's reachability walk is *name-level*: ``self.helper()``
resolves to any known function named ``helper``, and the
``Stage.exit.route`` indirection resolves because ``route`` is itself an
entry-point name. These tests pin both resolutions, the serialization
escape hatch, and — deliberately — the known blind spots, so a future
sharpening of the call graph shows up as an xfail flip rather than a
silent behaviour change.
"""

from pathlib import Path

import pytest

from repro.analysis.lint import lint_paths, render_text
from repro.analysis.lint.core import FileContext, module_name_for
from repro.analysis.lint.rules_race import PerCpuRaceRule

REPO_ROOT = Path(__file__).resolve().parents[2]
STAGES = REPO_ROOT / "src" / "repro" / "kernel" / "stages.py"
SOFTIRQ = REPO_ROOT / "src" / "repro" / "kernel" / "softirq.py"

#: A class owning a per-CPU structure, in the SoftirqNet idiom.
PERCPU_OWNER = (
    "class Mesh:\n"
    "    def __init__(self, num_cpus):\n"
    "        self.data = [[] for _ in range(num_cpus)]\n"
)


def race_findings(paths):
    result = lint_paths([str(p) for p in paths])
    return result, [f for f in result.findings if f.rule == "RACE301"]


def write(tmp_path, name, source):
    path = tmp_path / name
    path.write_text(source)
    return path


class TestSelfMethodResolution:
    """Entry point -> self.helper() -> violation in the helper."""

    def test_violation_reached_through_self_call(self, tmp_path):
        path = write(
            tmp_path,
            "self_call.py",
            PERCPU_OWNER
            + "\n"
            "class Router:\n"
            "    def route(self, skb, cpu, mesh):\n"
            "        self._steer(skb, cpu, cpu + 1, mesh)\n"
            "\n"
            "    def _steer(self, skb, src_cpu, dst_cpu, mesh):\n"
            "        mesh.data[dst_cpu].append(skb)\n",
        )
        _, race = race_findings([path])
        assert len(race) == 1
        assert "_steer" in race[0].message
        assert "'data'" in race[0].message

    def test_serialization_in_helper_silences(self, tmp_path):
        path = write(
            tmp_path,
            "serialized.py",
            PERCPU_OWNER
            + "\n"
            "class Router:\n"
            "    def route(self, skb, cpu, mesh):\n"
            "        self._steer(skb, cpu, cpu + 1, mesh)\n"
            "\n"
            "    def _steer(self, skb, src_cpu, dst_cpu, mesh):\n"
            "        mesh.data[dst_cpu].append(skb)\n"
            "        self.schedule(dst_cpu)\n",
        )
        result, race = race_findings([path])
        assert race == [], render_text(result)

    def test_single_cpu_param_is_core_local(self, tmp_path):
        # One CPU identity means the function runs *on* that core — the
        # dispatched-via-submit idiom — so its accesses are local.
        path = write(
            tmp_path,
            "local.py",
            PERCPU_OWNER
            + "\n"
            "class Router:\n"
            "    def route(self, skb, cpu, mesh):\n"
            "        mesh.data[cpu].append(skb)\n",
        )
        result, race = race_findings([path])
        assert race == [], render_text(result)


class TestTransitionIndirection:
    """EnqueueTransition.route -> stack.enqueue_backlog resolution on the
    real kernel sources (the cross-module hop the name-level graph
    exists for)."""

    def contexts(self):
        return [
            FileContext(str(p), p.read_text(), module_name_for(str(p)))
            for p in (STAGES, SOFTIRQ)
        ]

    def test_route_is_an_entry_point(self):
        funcs = PerCpuRaceRule._collect_functions(self.contexts())
        routes = [f for f in funcs if f.name == "route"]
        assert routes, "stages.py lost its Transition.route methods"
        assert all(f.is_entry() for f in routes)

    def test_enqueue_backlog_reachable_from_transitions(self):
        funcs = PerCpuRaceRule._collect_functions(self.contexts())
        reachable = PerCpuRaceRule._reachable_names(funcs)
        # route (stages.py) calls stack.enqueue_backlog; the name graph
        # must resolve that into softirq.py's definition.
        assert "enqueue_backlog" in reachable
        assert "raise_net_rx" in reachable

    def test_percpu_structures_collected_from_softirq(self):
        percpu = PerCpuRaceRule._collect_percpu_attrs(self.contexts())
        attrs = {attr for _owner, attr in percpu}
        assert "data" in attrs

    def test_mixed_module_pair_is_clean(self):
        result, race = race_findings([STAGES, SOFTIRQ])
        assert race == [], render_text(result)


class TestDispatchArguments:
    """Dispatched callbacks are call-graph edges: the reachability walk
    follows the *arguments* of schedule/schedule_at/submit/submit_multi,
    so a handler handed to the scheduler or a core is traced into
    per-CPU structures exactly like a direct call."""

    def test_schedule_callback_is_reached(self, tmp_path):
        path = write(
            tmp_path,
            "scheduled.py",
            PERCPU_OWNER
            + "\n"
            "class Router:\n"
            "    def route(self, skb, cpu, sim, mesh):\n"
            "        sim.schedule(0.0, self._drain, skb, cpu, mesh)\n"
            "\n"
            "    def _drain(self, skb, src_cpu, dst_cpu, mesh):\n"
            "        mesh.data[dst_cpu].append(skb)\n",
        )
        _, race = race_findings([path])
        assert len(race) == 1
        assert "_drain" in race[0].message

    def test_submit_callback_is_reached(self, tmp_path):
        path = write(
            tmp_path,
            "submitted.py",
            PERCPU_OWNER
            + "\n"
            "class Router:\n"
            "    def route(self, skb, cpu, core, mesh):\n"
            "        core.submit('softirq', 'spill', 1.0, self._spill, skb, cpu, mesh)\n"
            "\n"
            "    def _spill(self, skb, src_cpu, dst_cpu, mesh):\n"
            "        mesh.data[dst_cpu].append(skb)\n",
        )
        _, race = race_findings([path])
        assert len(race) == 1
        assert "_spill" in race[0].message

    def test_non_dispatch_call_args_stay_unfollowed(self, tmp_path):
        # Passing a bound method to an arbitrary (non-dispatch) call is
        # still a blind spot — only scheduler-shaped calls promote their
        # arguments to edges, which is what keeps the graph precise.
        path = write(
            tmp_path,
            "registry.py",
            PERCPU_OWNER
            + "\n"
            "class Router:\n"
            "    def route(self, skb, cpu, registry, mesh):\n"
            "        registry.register(self._spill)\n"
            "\n"
            "    def _spill(self, skb, src_cpu, dst_cpu, mesh):\n"
            "        mesh.data[dst_cpu].append(skb)\n",
        )
        _, race = race_findings([path])
        assert race == []


class TestKnownBlindSpots:
    """Documented limits of the name-level call graph. If one of these
    xfails starts passing, the detector got sharper — update the
    docstring in rules_race.py and flip the test."""

    @pytest.mark.xfail(
        reason="call through a stored bound method (fn = self._steer; "
        "fn(...)) carries no resolvable name",
        strict=True,
    )
    def test_bound_method_indirection_is_missed(self, tmp_path):
        path = write(
            tmp_path,
            "indirect.py",
            PERCPU_OWNER
            + "\n"
            "class Router:\n"
            "    def route(self, skb, cpu, mesh):\n"
            "        fn = self._steer\n"
            "        fn(skb, cpu, cpu + 1, mesh)\n"
            "\n"
            "    def _steer(self, skb, src_cpu, dst_cpu, mesh):\n"
            "        mesh.data[dst_cpu].append(skb)\n",
        )
        _, race = race_findings([path])
        assert race  # xfail: not reached today

    def test_unreachable_helper_is_not_checked(self, tmp_path):
        # Not an xfail but a design decision: code no entry point reaches
        # does not run per packet, so it is out of scope by construction.
        path = write(
            tmp_path,
            "orphan.py",
            PERCPU_OWNER
            + "\n"
            "class Maintenance:\n"
            "    def rebalance(self, skb, src_cpu, dst_cpu, mesh):\n"
            "        mesh.data[dst_cpu].append(skb)\n",
        )
        _, race = race_findings([path])
        assert race == []

    def test_owning_class_fallback_checks_unreachable_methods(self, tmp_path):
        # ...except on the per-CPU-owning class itself, where the
        # conservative fallback checks every method regardless.
        path = write(
            tmp_path,
            "owner_fallback.py",
            "class Mesh:\n"
            "    def __init__(self, num_cpus):\n"
            "        self.data = [[] for _ in range(num_cpus)]\n"
            "\n"
            "    def rebalance(self, skb, src_cpu, dst_cpu):\n"
            "        self.data[dst_cpu].append(skb)\n",
        )
        _, race = race_findings([path])
        assert len(race) == 1
        assert "rebalance" in race[0].message
