"""Static registry of simsan rule ids.

Kept free of imports so :mod:`repro.analysis.lint.runner` can learn the
ownership rule ids (for pragma validation — all four passes share the
``# simlint: disable=`` suppression machinery) without importing the
dataflow engine, and vice versa.
"""

from __future__ import annotations

from typing import Tuple

#: Skb ownership-transfer rules (rules_skbown.py).
SKB_RULE_IDS: Tuple[str, ...] = ("OWN611", "OWN612", "OWN613")

#: Flow-cache entry-lifecycle rules (rules_cache.py).
CACHE_RULE_IDS: Tuple[str, ...] = ("OWN621", "OWN622", "OWN623")

#: Every rule id the ``repro san`` pass can report.
SAN_RULE_IDS: Tuple[str, ...] = SKB_RULE_IDS + CACHE_RULE_IDS
