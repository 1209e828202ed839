"""Unit tests for SimContext: ownership, fan-out, and isolation."""

from repro.hw.topology import Machine
from repro.kernel.stack import NetworkStack
from repro.overlay.host import Host
from repro.sim import SimContext, Simulator
from repro.kernel.stack import StackConfig
from repro.sim.rng import RngRegistry


class _Monitor:
    """Minimal monitor double: the context only passes it around."""


def test_context_builds_own_sim_and_rng():
    ctx = SimContext(seed=7, name="demo")
    assert ctx.sim.now == 0.0
    assert ctx.stream("a") is ctx.stream("a")
    assert ctx.monitor is None and ctx.tracer is None


def test_context_accepts_existing_components():
    sim = Simulator()
    rng = RngRegistry(3)
    ctx = SimContext(sim=sim, rng=rng)
    assert ctx.sim is sim
    assert ctx.rng is rng


def test_two_contexts_are_isolated():
    a = SimContext(seed=1, name="a")
    b = SimContext(seed=1, name="b")
    a.sim.schedule(10.0, lambda: None)
    a.sim.run()
    assert a.sim.now == 10.0
    assert b.sim.now == 0.0
    assert b.sim.pending() == 0
    # Identical seeds give identical (but independent) streams.
    assert a.stream("x").random() == b.stream("x").random()


def test_monitor_fanout_to_registered_sinks():
    ctx = SimContext()

    class Sink:
        monitor = None

    sink = Sink()
    ctx.register_monitored(sink)
    monitor = _Monitor()
    ctx.attach_monitor(monitor)
    assert sink.monitor is monitor
    # Registering after attach picks the monitor up immediately.
    late = Sink()
    ctx.register_monitored(late)
    assert late.monitor is monitor
    ctx.detach_monitor()
    assert sink.monitor is None and late.monitor is None


def test_machine_auto_creates_context():
    sim = Simulator()
    machine = Machine(sim, num_cpus=2, name="m")
    assert machine.ctx.sim is sim
    assert machine.sim is sim
    # The machine's interrupt controller and CPUs are monitored sinks.
    monitor = _Monitor()
    machine.ctx.attach_monitor(monitor)
    assert machine.interrupts.monitor is monitor
    assert all(cpu.monitor is monitor for cpu in machine.cpus)


def test_machine_accepts_shared_context():
    ctx = SimContext(seed=5, name="shared")
    machine = Machine(ctx.sim, num_cpus=2, name="m", ctx=ctx)
    assert machine.ctx is ctx
    assert machine.rng is ctx.rng


def test_stack_accepts_context_or_legacy_sim():
    ctx = SimContext(name="ctx-form")
    machine = Machine(ctx.sim, num_cpus=2, ctx=ctx)
    stack = NetworkStack(ctx, machine, StackConfig())
    assert stack.ctx is ctx
    assert stack.sim is ctx.sim
    # The stack published its cost model into the context.
    assert ctx.costs is stack.costs

    legacy_sim = Simulator()
    legacy_machine = Machine(legacy_sim, num_cpus=2)
    legacy = NetworkStack(legacy_sim, legacy_machine, StackConfig())
    assert legacy.ctx is legacy_machine.ctx
    assert legacy.sim is legacy_sim


def test_stack_tracer_property_uses_context():
    ctx = SimContext()
    machine = Machine(ctx.sim, num_cpus=2, ctx=ctx)
    stack = NetworkStack(ctx, machine, StackConfig())
    sentinel = object()
    stack.tracer = sentinel
    assert ctx.tracer is sentinel
    assert stack.tracer is sentinel
    stack.tracer = None
    assert ctx.tracer is None


def test_two_overlay_hosts_coexist_in_one_process():
    sim_a = Simulator()
    sim_b = Simulator()
    host_a = Host(sim_a, name="a", seed=1)
    host_b = Host(sim_b, name="b", seed=2)
    assert host_a.ctx is not host_b.ctx
    assert host_a.ctx.sim is sim_a and host_b.ctx.sim is sim_b
    # Attaching a monitor to one world leaves the other untouched.
    monitor = _Monitor()
    host_a.ctx.attach_monitor(monitor)
    assert host_b.ctx.monitor is None
    assert host_b.stack.softnet.monitor is None


def test_flow_ids_unique_across_hosts_sharing_a_simulator():
    """Ids belong to the simulated world: every Host and Machine on one
    Simulator draws from one sequence, in construction order from 1."""
    sim = Simulator()
    flows = []
    for name in ("a", "b"):
        host = Host(sim, StackConfig(mode="overlay"), num_cpus=4, name=name)
        container = host.launch_container("c")
        socket = container.listen(5001, app_cpu=2)
        for sport in (1000, 1001):
            flows.append(container.connect_flow(socket, 0x0B000001, sport, 5001))
    machine_id = Machine(sim, num_cpus=2).ctx.new_flow_id()
    # Each listen() takes an id too: a:1, its flows 2 and 3; b:4, 5 and 6.
    assert [flow.flow_id for flow in flows] == [2, 3, 5, 6]
    assert machine_id == 7
    # A second world starts over.
    assert SimContext().new_flow_id() == 1
