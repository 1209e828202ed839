"""Stage-order specification derived from the real stage graph.

The skb-typestate analysis needs to know the legal order of pipeline
stages — alloc → hardirq → NAPI/driver → RPS backlog → protocol →
socket delivery → free. Hand-coding that order in the analyzer would rot
the moment the stack changes shape, so it is **derived**: this module
builds the shipped stack configurations (host, overlay, overlay+Falcon,
overlay+Falcon+GRO-split, plus both flow-cache regimes — the same
matrix the golden traces pin down) and walks the live
:class:`~repro.kernel.stages.Stage` /
:class:`~repro.kernel.stages.Transition` objects. Falcon only swaps the
*selectors* inside transitions (``core/falcon.py`` /
``core/pipelining.py``), never the stage topology; the flow cache adds
the ``fastpath`` stage and a hit/miss fork at the driver exit, which is
walked through :class:`~repro.kernel.stages.FastPathTransition` — so
every configuration folds into one DAG, and the analyzer would still
notice if a config ever grew a new stage, because that config is built
here too.

From the graph we extract:

* ``stage_rank`` — a topological rank per stage name (longest path from
  the synthetic ``alloc`` root), plus synthetic ``alloc`` / ``hardirq``
  roots and ``socket`` / ``free`` sinks;
* ``edges`` — the legal stage→stage handoffs (also the reference set the
  static↔dynamic trace step of ``repro check`` compares runtime
  traces against);
* ``ops`` — a callable-name → pipeline-position table: each
  :class:`Step`'s name maps to the rank *set* of the stages that contain
  it (``netif_rx`` appears in several), transitions contribute the
  enqueue ops, ``SocketDeliver`` contributes the delivery op.

Building a few stacks takes ~1 ms and touches no RNG-visible state; the
result is cached per process.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Set, Tuple

#: Synthetic graph nodes around the derived stages.
ALLOC = "alloc"
HARDIRQ = "hardirq"
SOCKET = "socket"
FREE = "free"

#: Op kinds understood by the typestate rule.
KIND_ALLOC = "alloc"
KIND_HARDIRQ = "hardirq"
KIND_STEP = "step"
KIND_ENQUEUE = "enqueue"
KIND_DELIVER = "deliver"
KIND_FREE = "free"
KIND_DROP = "drop"

#: Allocation calls: constructing an Skb, or the kernel-idiom helper.
ALLOC_OPS: Tuple[str, ...] = ("Skb", "alloc_skb")

#: Hardirq entry points (the NIC interrupt handler).
HARDIRQ_OPS: Tuple[str, ...] = ("irq_handler",)

#: Backlog-enqueue primitives (the stage-transition machinery). These
#: names come from the softirq layer the transitions call into.
ENQUEUE_OPS: Tuple[str, ...] = ("enqueue_backlog", "enqueue_to_backlog")

#: Socket delivery (the terminal SocketDeliver transition target).
DELIVER_OPS: Tuple[str, ...] = ("deliver_to_socket",)

#: Normal end-of-life: the packet was consumed after delivery.
FREE_OPS: Tuple[str, ...] = ("consume_skb", "free_skb")

#: Abnormal end-of-life: the packet was dropped. Kernel discipline (and
#: the FLOW404 rule) demands a counter increment next to every drop.
DROP_OPS: Tuple[str, ...] = ("kfree_skb", "drop_skb")


@dataclass(frozen=True)
class OpSpec:
    """Where one callable name sits in the pipeline."""

    name: str
    kind: str
    #: Ranks of the stages this op may execute in (a step name reused by
    #: several stages carries all of their ranks).
    ranks: FrozenSet[int]


@dataclass
class StageOrderSpec:
    """The derived pipeline order: stages, edges, and op positions."""

    stage_rank: Dict[str, int]
    edges: Set[Tuple[str, str]]
    ops: Dict[str, OpSpec] = field(default_factory=dict)

    @property
    def delivered_rank(self) -> int:
        return self.stage_rank[SOCKET]

    @property
    def freed_rank(self) -> int:
        return self.stage_rank[FREE]

    def rank_label(self, rank: int) -> str:
        for name, value in sorted(self.stage_rank.items()):
            if value == rank:
                return name
        return f"rank{rank}"

    def describe(self) -> Dict[str, object]:
        """JSON-friendly dump of the spec."""
        return {
            "stages": dict(sorted(self.stage_rank.items(), key=lambda kv: kv[1])),
            "edges": sorted(f"{a}->{b}" for a, b in self.edges),
            "ops": {
                name: {"kind": op.kind, "ranks": sorted(op.ranks)}
                for name, op in sorted(self.ops.items())
            },
        }


def _reference_stacks() -> List[object]:
    """Build the shipped stack configurations (imports deferred so the
    analysis framework stays importable without the simulator)."""
    from repro.core.config import FalconConfig, FlowCacheConfig
    from repro.hw.topology import Machine
    from repro.kernel.stack import NetworkStack, StackConfig
    from repro.sim.engine import Simulator

    stacks: List[object] = []
    configs = [
        StackConfig(mode="host", falcon=None),
        StackConfig(mode="overlay", falcon=None),
        StackConfig(mode="overlay", falcon=FalconConfig()),
        StackConfig(mode="overlay", falcon=FalconConfig(split_gro=True)),
        # The flow-cache datapath adds the fastpath stage and the
        # hit/miss fork at the driver exit; both cache regimes are built
        # so the derived spec legalizes the cache-hit skip without
        # suppressions (and notices if the fork's shape ever changes).
        StackConfig(mode="overlay", falcon=None, flowcache=FlowCacheConfig()),
        StackConfig(
            mode="overlay",
            falcon=FalconConfig(split_gro=True),
            flowcache=FlowCacheConfig(),
        ),
    ]
    for config in configs:
        sim = Simulator()
        machine = Machine(sim)
        stacks.append(NetworkStack(sim, machine, config))
    return stacks


def _stage_graph(stacks: List[object]) -> Tuple[Set[str], Set[Tuple[str, str]], Dict[str, Set[str]]]:
    """Walk live Stage/Transition objects into (stages, edges, steps)."""
    from repro.kernel.stages import (
        EnqueueTransition,
        FastPathTransition,
        SocketDeliver,
    )

    stage_names: Set[str] = set()
    edges: Set[Tuple[str, str]] = set()
    steps_by_stage: Dict[str, Set[str]] = {}

    def add_exit(stage_name: str, transition: object) -> None:
        if isinstance(transition, FastPathTransition):
            # The flow-cache fork: both the cache-hit jump and the slow
            # miss edge are legal handoffs out of the driver stage.
            add_exit(stage_name, transition.hit)
            add_exit(stage_name, transition.miss)
        elif isinstance(transition, EnqueueTransition):
            edges.add((stage_name, transition.next_stage.name))
        elif isinstance(transition, SocketDeliver):
            edges.add((stage_name, SOCKET))

    for stack in stacks:
        stages = stack.stages  # type: ignore[attr-defined]
        for stage in stages.values():
            stage_names.add(stage.name)
            steps_by_stage.setdefault(stage.name, set()).update(
                step.name for step in stage.steps
            )
            add_exit(stage.name, stage.exit)
        # The NIC interrupt feeds the driver stage.
        edges.add((HARDIRQ, stages["pnic"].name))
    edges.add((ALLOC, HARDIRQ))
    edges.add((SOCKET, FREE))
    return stage_names, edges, steps_by_stage


def _longest_path_ranks(edges: Set[Tuple[str, str]]) -> Dict[str, int]:
    """Topological longest-path rank for every node in the DAG."""
    nodes: Set[str] = set()
    for a, b in edges:
        nodes.add(a)
        nodes.add(b)
    indegree: Dict[str, int] = {node: 0 for node in nodes}
    for _, b in edges:
        indegree[b] += 1
    rank: Dict[str, int] = {node: 0 for node in nodes}
    ready = sorted(node for node, deg in indegree.items() if deg == 0)
    order: List[str] = []
    while ready:
        node = ready.pop(0)
        order.append(node)
        for a, b in sorted(edges):
            if a != node:
                continue
            rank[b] = max(rank[b], rank[node] + 1)
            indegree[b] -= 1
            if indegree[b] == 0:
                ready.append(b)
        ready.sort()
    if len(order) != len(nodes):
        raise RuntimeError(
            "stage graph has a cycle — the receive pipeline must be a DAG"
        )
    return rank


@functools.lru_cache(maxsize=1)
def stage_order_spec() -> StageOrderSpec:
    """Derive (and cache) the stage-order spec from the built stacks."""
    stacks = _reference_stacks()
    _stage_names, edges, steps_by_stage = _stage_graph(stacks)
    rank = _longest_path_ranks(edges)

    ops: Dict[str, OpSpec] = {}

    def add(name: str, kind: str, ranks: Set[int]) -> None:
        existing = ops.get(name)
        if existing is not None:
            ranks = set(existing.ranks) | ranks
            kind = existing.kind
        ops[name] = OpSpec(name=name, kind=kind, ranks=frozenset(ranks))

    for stage_name, step_names in steps_by_stage.items():
        for step_name in step_names:
            add(step_name, KIND_STEP, {rank[stage_name]})
    # Enqueue primitives may target any stage that is an enqueue-edge
    # destination (derived, not hand-listed).
    enqueue_targets = {
        rank[b] for _a, b in edges if b in rank and b not in (SOCKET, FREE, HARDIRQ)
    }
    for name in ENQUEUE_OPS:
        add(name, KIND_ENQUEUE, enqueue_targets)
    for name in ALLOC_OPS:
        add(name, KIND_ALLOC, {rank[ALLOC]})
    for name in HARDIRQ_OPS:
        add(name, KIND_HARDIRQ, {rank[HARDIRQ]})
    for name in DELIVER_OPS:
        add(name, KIND_DELIVER, {rank[SOCKET]})
    for name in FREE_OPS:
        add(name, KIND_FREE, {rank[FREE]})
    for name in DROP_OPS:
        add(name, KIND_DROP, {rank[FREE]})
    return StageOrderSpec(stage_rank=rank, edges=edges, ops=ops)
