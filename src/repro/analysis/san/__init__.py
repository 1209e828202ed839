"""The ``san`` rule family: ownership of skbs moved across boundaries.

Proves, on a CFG/worklist dataflow engine (:mod:`cfg`, :mod:`engine`),
that each skb moved across stages and shard boundaries via
``encode_skb`` / ``decode_skb`` wire payloads has exactly one owner and
is never reused while live (:mod:`rules_skbown`, OWN611-613).

Run every family with ``repro check``.
"""
