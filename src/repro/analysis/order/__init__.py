"""The ``order`` rule family: causality and ordering for the parallel datapaths.

Guards the two invariants the paper's correctness argument rests on —
1-vs-N-shard byte-identity and per-flow delivery order through the
cached fast path — on the flow family's CFG/worklist engine:

* partition-invariance taint: shard/worker identity must not reach
  timestamps, payloads, seeds or merge keys (:mod:`rules_partition`,
  ORD501-503);
* cross-shard causality: every cross-SimContext emission goes through a
  ``CrossShardEvent`` with a timestamp provably past the window barrier
  plus lookahead (:mod:`rules_causality`, ORD511-513);
* flowcache ordering typestate: the slow-inflight ledger gate and
  container-removal invalidation (:mod:`rules_flowcache`, ORD521-523).

Run every family with ``repro check``; its ``trace`` step
(:mod:`repro.analysis.trace`) replays the goldens for per-flow delivery
order and fastpath edges.
"""
