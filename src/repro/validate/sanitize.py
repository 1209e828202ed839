"""Runtime ownership sanitizer: the dynamic side of ``repro san``.

The static pass (:mod:`repro.analysis.san`) proves ownership discipline
over the *source*; this module checks it over an actual *run*. A shadow
:class:`OwnershipLedger` records every acquire and release of the three
kinds of owned objects the reproduction moves across boundaries:

``event``       pooled/scheduled :class:`~repro.sim.events.Event`
                objects — acquired when minted (``schedule_at`` /
                ``_acquire``), released when fired or when the event
                queue discards a cancelled entry lazily.
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

At end of run :meth:`OwnershipLedger.report` classifies what is still
live: an event that is neither queued nor released leaked (the pool
shrank for good); queued events, table-owned entries and in-flight
records are legitimate residue and count as *pending*, not leaks.
Mismatched operations (double acquire, release of something untracked)
are reported as errors at the offending site.

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
    "LeakRecord",
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

#: Object kinds the ledger understands (see module docstring).
KINDS = ("event", "flow_entry", "record")


def sanitize_enabled() -> bool:
    """Is the sanitizer switched on for this process?"""
    return os.environ.get(SANITIZE_ENV_VAR, "") not in ("", "0")


@dataclass(frozen=True)
class LeakRecord:
    """One leak line: ``count`` objects acquired at ``site`` never left."""

    kind: str
    site: str
    count: int

    def render(self) -> str:
        plural = "s" if self.count != 1 else ""
        return (
            f"{self.count} {self.kind}{plural} acquired at {self.site} "
            "leaked (never released, not queued)"
        )


@dataclass
class SanitizeReport:
    """End-of-run verdict from :meth:`OwnershipLedger.report`."""

    leaks: List[LeakRecord] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    #: kind -> still-live objects that are legitimate residue.
    pending: Dict[str, int] = field(default_factory=dict)
    #: site -> acquire count over the whole run.
    acquired: Dict[str, int] = field(default_factory=dict)
    #: site -> release count over the whole run.
    released: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.leaks and not self.errors

    def sites(self) -> Set[str]:
        """Every site tag this run actually exercised."""
        return set(self.acquired) | set(self.released)

    def render(self) -> List[str]:
        lines = [leak.render() for leak in self.leaks]
        lines.extend(self.errors)
        if not lines:
            total_acquired = sum(self.acquired.values())
            total_released = sum(self.released.values())
            residue = sum(self.pending.values())
            lines.append(
                f"{total_acquired} acquires / {total_released} releases "
                f"balanced; {residue} pending (queued/table-owned/in-flight)"
            )
        return lines


class OwnershipLedger:
    """Shadow ownership map: (kind, identity) -> (acquire site, object).

    Identities are whatever the instrumentation site can produce
    deterministically and uniquely among *live* objects — ``id(event)``
    for events (the ledger keeps the object alive, so the id cannot be
    recycled while the entry is live), ``(id(table), key)`` for cache
    entries, ``(src, seq)`` for cross-shard records.
    """

    __slots__ = ("_live", "errors", "acquired", "released")

    def __init__(self) -> None:
        self._live: Dict[Tuple[str, Any], Tuple[str, Any]] = {}
        self.errors: List[str] = []
        self.acquired: Dict[str, int] = {}
        self.released: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # The two operations instrumented sites call
    # ------------------------------------------------------------------
    def acquire(
        self, kind: str, identity: Any, site: str, obj: Any = None
    ) -> None:
        key = (kind, identity)
        prev = self._live.get(key)
        if prev is not None:
            self.errors.append(
                f"double acquire of {kind} at {site}: the object is "
                f"already live from {prev[0]} (two owners)"
            )
        self._live[key] = (site, obj)
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
        """Classify everything still live; leaks vs legitimate residue."""
        leak_counts: Dict[Tuple[str, str], int] = {}
        pending: Dict[str, int] = {}
        for (kind, _identity), (site, obj) in self._live.items():
            if kind == "event" and not getattr(obj, "queued", False):
                # Neither fired, nor discarded, nor waiting in a queue:
                # nothing will ever release this object again.
                leak_key = (kind, site)
                leak_counts[leak_key] = leak_counts.get(leak_key, 0) + 1
            else:
                # Queued events, table-owned entries and in-flight
                # records are owned by live structures — residue of
                # stopping the clock, not leaks.
                pending[kind] = pending.get(kind, 0) + 1
        leaks = [
            LeakRecord(kind=kind, site=site, count=count)
            for (kind, site), count in sorted(leak_counts.items())
        ]
        return SanitizeReport(
            leaks=leaks,
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
