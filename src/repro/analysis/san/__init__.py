"""The ``san`` rule family: ownership and lifetimes of moved objects.

Proves, on the flow family's CFG/worklist engine, that each of the two
kinds of owned objects the reproduction moves across boundaries has
exactly one owner and is never reused while live:

* skbs across stages and shard boundaries via ``encode_skb`` /
  ``decode_skb`` wire payloads (:mod:`rules_skbown`, OWN611-613);
* flow-cache entries through insert/evict/invalidate, including the
  cross-shard ``RECORD_INVAL`` churn path (:mod:`rules_cache`,
  OWN621-623).

Run every family with ``repro check``; its ``trace`` step
(:mod:`repro.analysis.trace`) checks the runtime sanitizer's site tags
(:mod:`repro.validate.sanitize`, ``REPRO_SANITIZE=1``) against the
static catalogue.
"""
