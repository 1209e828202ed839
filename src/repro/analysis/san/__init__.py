"""simsan: ownership/lifetime verifier for the repo's moved objects.

The fourth analyzer on the simflow CFG/worklist engine
(lint → flow → order → **ownership**), proving that each of the two
kinds of owned objects the reproduction moves across boundaries has
exactly one owner and is never reused while live:

* skbs across stages and shard boundaries via ``encode_skb`` /
  ``decode_skb`` wire payloads (:mod:`rules_skbown`, OWN611-613);
* flow-cache entries through insert/evict/invalidate, including the
  cross-shard ``RECORD_INVAL`` churn path (:mod:`rules_cache`,
  OWN621-623);
* static↔dynamic cross-check against the runtime sanitizer ledger
  (:mod:`sancheck`; the dynamic side lives in
  :mod:`repro.validate.sanitize`, enabled via ``REPRO_SANITIZE=1``).

Run it as ``repro san`` (or as part of ``repro check``); it shares
reporters, pragmas, and the rule-id namespace with the other passes.

Exports resolve lazily (PEP 562): :mod:`repro.analysis.lint.runner`
imports :mod:`repro.analysis.san.registry` for the shared rule-id
namespace, and an eager import of :mod:`san.runner` here would close
that loop into a circular import.
"""

from typing import TYPE_CHECKING

from repro.analysis.san.registry import SAN_RULE_IDS

if TYPE_CHECKING:  # pragma: no cover - static-analysis only
    from repro.analysis.san.runner import (
        SAN_RULES,
        san_paths,
        san_rule_by_id,
    )
    from repro.analysis.san.sancheck import SanCheckResult, san_cross_check

_LAZY = {
    "SAN_RULES": ("repro.analysis.san.runner", "SAN_RULES"),
    "san_paths": ("repro.analysis.san.runner", "san_paths"),
    "san_rule_by_id": ("repro.analysis.san.runner", "san_rule_by_id"),
    "SanCheckResult": ("repro.analysis.san.sancheck", "SanCheckResult"),
    "san_cross_check": ("repro.analysis.san.sancheck", "san_cross_check"),
}

__all__ = ["SAN_RULE_IDS", *sorted(_LAZY)]


def __getattr__(name: str) -> object:
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)
