"""Runtime ownership sanitizer: the dynamic side of ``repro san``.

The static pass (:mod:`repro.analysis.san`) proves ownership discipline
over the *source*; this module checks it over an actual *run*. A shadow
:class:`OwnershipLedger` records every acquire and release of the two
kinds of owned objects the reproduction moves across boundaries:

``flow_entry``  flow-cache entries — acquired at
                :meth:`~repro.kernel.flowcache.FlowTable.insert`,
                released by eviction and every ``invalidate*`` path
                (the ``RECORD_INVAL`` churn included).
``record``      cross-shard :class:`CrossShardEvent` records —
                acquired at the host outbox ``emit``, released when the
                destination shard ``inject``\\ s them.

Enable with ``REPRO_SANITIZE=1`` (or the :func:`sanitizing` context
manager, which sets the variable for you): instrumented constructors
pick up the process ledger and every site pays one ``is None`` check
when the sanitizer is off. The ledger never schedules, never reads the
clock and never touches an RNG, so a sanitized run's traces are
byte-identical to an unsanitized run's — the golden suite asserts this.

Mismatched operations (double acquire, release of something untracked)
are reported as errors at the offending site. What is still live at
end of run — table-owned entries and in-flight records — is residue of
stopping the clock and is counted as *pending*.

Site tags are string literals at the instrumentation sites;
:mod:`repro.analysis.san.sancheck` scans the source for them and
cross-checks that every site a dynamic run reports is in that static
catalog.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

__all__ = [
    "SANITIZE_ENV_VAR",
    "OwnershipLedger",
    "SanitizeReport",
    "current_ledger",
    "install_ledger",
    "reset_ledger",
    "sanitize_enabled",
    "sanitizing",
]

#: Environment variable that switches the sanitizer on ("" / "0" = off).
SANITIZE_ENV_VAR = "REPRO_SANITIZE"

def sanitize_enabled() -> bool:
    """Is the sanitizer switched on for this process?"""
    return os.environ.get(SANITIZE_ENV_VAR, "") not in ("", "0")


@dataclass
class SanitizeReport:
    """End-of-run verdict from :meth:`OwnershipLedger.report`."""

    errors: List[str] = field(default_factory=list)
    #: kind -> still-live objects (table-owned or in flight).
    pending: Dict[str, int] = field(default_factory=dict)
    #: site -> acquire count over the whole run.
    acquired: Dict[str, int] = field(default_factory=dict)
    #: site -> release count over the whole run.
    released: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.errors

    def sites(self) -> Set[str]:
        """Every site tag this run actually exercised."""
        return set(self.acquired) | set(self.released)

    def render(self) -> List[str]:
        if self.errors:
            return list(self.errors)
        total_acquired = sum(self.acquired.values())
        total_released = sum(self.released.values())
        residue = sum(self.pending.values())
        return [
            f"{total_acquired} acquires / {total_released} releases "
            f"balanced; {residue} pending (table-owned/in-flight)"
        ]


class OwnershipLedger:
    """Shadow ownership map: (kind, identity) -> acquire site.

    Identities are whatever the instrumentation site can produce
    deterministically and uniquely among *live* objects —
    ``(id(table), key)`` for cache entries, ``(src, seq)`` for
    cross-shard records.
    """

    __slots__ = ("_live", "errors", "acquired", "released")

    def __init__(self) -> None:
        self._live: Dict[Tuple[str, Any], str] = {}
        self.errors: List[str] = []
        self.acquired: Dict[str, int] = {}
        self.released: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # The two operations instrumented sites call
    # ------------------------------------------------------------------
    def acquire(self, kind: str, identity: Any, site: str) -> None:
        key = (kind, identity)
        prev = self._live.get(key)
        if prev is not None:
            self.errors.append(
                f"double acquire of {kind} at {site}: the object is "
                f"already live from {prev} (two owners)"
            )
        self._live[key] = site
        self.acquired[site] = self.acquired.get(site, 0) + 1

    def release(self, kind: str, identity: Any, site: str) -> None:
        key = (kind, identity)
        if self._live.pop(key, None) is None:
            self.errors.append(
                f"release of untracked {kind} at {site}: either a double "
                "release or an acquire path the sanitizer does not cover"
            )
        self.released[site] = self.released.get(site, 0) + 1

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def live_count(self, kind: Optional[str] = None) -> int:
        if kind is None:
            return len(self._live)
        return sum(1 for k, _ in self._live if k == kind)

    def report(self) -> SanitizeReport:
        """Errors so far, plus what is still live per kind."""
        pending: Dict[str, int] = {}
        for kind, _identity in self._live:
            pending[kind] = pending.get(kind, 0) + 1
        return SanitizeReport(
            errors=list(self.errors),
            pending=pending,
            acquired=dict(self.acquired),
            released=dict(self.released),
        )


# ----------------------------------------------------------------------
# Process-wide ledger plumbing
# ----------------------------------------------------------------------
_LEDGER: Optional[OwnershipLedger] = None


def current_ledger() -> Optional[OwnershipLedger]:
    """The process ledger, created on first use when the env var is set.

    Instrumented constructors call this once at ``__init__`` and keep
    the result (or None) — the per-operation cost with the sanitizer off
    is a single ``is None`` check.
    """
    global _LEDGER
    if _LEDGER is None and sanitize_enabled():
        _LEDGER = OwnershipLedger()
    return _LEDGER


def install_ledger(ledger: Optional[OwnershipLedger] = None) -> OwnershipLedger:
    """Install (and return) a fresh or caller-provided process ledger."""
    global _LEDGER
    _LEDGER = ledger if ledger is not None else OwnershipLedger()
    return _LEDGER


def reset_ledger() -> None:
    """Drop the process ledger (new sanitized objects get a fresh one)."""
    global _LEDGER
    _LEDGER = None


@contextmanager
def sanitizing() -> Iterator[OwnershipLedger]:
    """Run a block under a fresh ledger with the sanitizer forced on.

    Sets ``REPRO_SANITIZE=1`` for the duration so objects constructed
    inside the block self-instrument, then restores the previous state.
    """
    previous_env = os.environ.get(SANITIZE_ENV_VAR)
    previous_ledger = _LEDGER
    os.environ[SANITIZE_ENV_VAR] = "1"
    ledger = install_ledger()
    try:
        yield ledger
    finally:
        if previous_env is None:
            os.environ.pop(SANITIZE_ENV_VAR, None)
        else:
            os.environ[SANITIZE_ENV_VAR] = previous_env
        if previous_ledger is not None:
            install_ledger(previous_ledger)
        else:
            reset_ledger()
