"""Static↔dynamic cross-check of the ownership sanitizer's site tags.

Two sides describe the same lifecycle and must agree:

* the **static catalog** — every site tag literal at an instrumentation
  call (``ledger.acquire(kind, identity, "tag")`` /
  ``ledger.release(kind, identity, "tag")``) found by scanning the
  source tree;
* the **dynamic sites** — the tags an actual sanitized run reported
  through :meth:`~repro.validate.sanitize.SanitizeReport.sites`.

Every dynamic site must be in the static catalog: a tag the scan cannot
find means an instrumentation call built its site string at runtime (so
``repro san`` cannot reason about it) or lives outside the analyzed
tree. The reverse direction is informational — a static site a probe
run never exercised is listed as *unexercised*, not failed, because no
single scenario hits every release path.

``repro san --trace`` runs :func:`dynamic_site_probe` (a thrashed flow
table and a two-host cluster ring) and cross-checks it; the sanitizer
test tier does the same against full golden scenarios.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Set

#: Callee last-segments whose third positional argument is a site tag.
_INSTRUMENTATION_CALLS = frozenset(("acquire", "release"))

#: Argument index of the site tag in every instrumentation call.
_SITE_ARG_INDEX = 2


@dataclass
class SanCheckResult:
    """Verdict of one static↔dynamic cross-check."""

    static_sites: List[str]
    dynamic_sites: List[str]
    #: Dynamic sites absent from the static catalog — failures.
    unknown: List[str]
    #: Static sites the dynamic run never exercised — informational.
    unexercised: List[str]

    @property
    def ok(self) -> bool:
        return not self.unknown

    def render(self) -> List[str]:
        lines = [
            f"{len(self.static_sites)} static sites, "
            f"{len(self.dynamic_sites)} exercised dynamically"
        ]
        for site in self.unknown:
            lines.append(
                f"UNKNOWN dynamic site {site!r}: not in the static catalog "
                "(runtime-built tag or uninstrumented module?)"
            )
        if self.unexercised:
            lines.append(
                "unexercised static sites: " + ", ".join(self.unexercised)
            )
        return lines


def static_site_catalog(paths: Sequence[str] = ("src",)) -> Set[str]:
    """Every site-tag literal at an instrumentation call under ``paths``."""
    from repro.analysis.lint.runner import iter_python_files

    sites: Set[str] = set()
    for path in iter_python_files(paths):
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError:
            continue
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (
                func.attr
                if isinstance(func, ast.Attribute)
                else func.id if isinstance(func, ast.Name) else None
            )
            if name not in _INSTRUMENTATION_CALLS:
                continue
            if len(node.args) <= _SITE_ARG_INDEX:
                continue
            site = node.args[_SITE_ARG_INDEX]
            if isinstance(site, ast.Constant) and isinstance(site.value, str):
                sites.add(site.value)
    return sites


def dynamic_site_probe() -> Set[str]:
    """A small sanitized workout that touches every object kind.

    Exercises flow-table insert / evict / invalidate churn and the
    cross-shard record path of a tiny cluster ring. Returns the site
    tags the ledger saw.
    """
    from repro.validate.sanitize import sanitizing

    with sanitizing() as ledger:
        _probe_flowtable()
        _probe_cluster()
        return ledger.report().sites()


def _probe_flowtable() -> None:
    from repro.kernel.flowcache import FlowTable

    table = FlowTable(capacity=1)
    table.insert((1, 2, 17, 1000, 2000))
    table.insert((2, 3, 17, 1000, 2000))  # evicts the first (capacity 1)
    table.invalidate((2, 3, 17, 1000, 2000))
    table.insert((3, 4, 17, 1000, 2000))
    table.invalidate_ip(3)
    table.insert((5, 6, 17, 1000, 2000))
    table.invalidate_all()


def _probe_cluster() -> None:
    from repro.overlay.cluster import run_cluster, udp_ring_spec

    spec = udp_ring_spec(
        num_hosts=2,
        message_size=256,
        rate_pps=20_000.0,
        warmup_us=200.0,
        duration_us=800.0,
        flowcache=True,
        flowcache_capacity=1,
        churn=((600.0, 1),),
    )
    run_cluster(spec, shards=1)


def san_cross_check(
    paths: Optional[Sequence[str]] = None,
    dynamic_sites: Optional[Iterable[str]] = None,
) -> SanCheckResult:
    """Cross-check dynamic site tags against the static catalog.

    ``dynamic_sites`` defaults to a fresh :func:`dynamic_site_probe`
    run; pass the sites of a longer run (e.g. a sanitized golden suite)
    to check that run instead.
    """
    static = static_site_catalog(tuple(paths) if paths else ("src",))
    dynamic = (
        set(dynamic_sites) if dynamic_sites is not None else dynamic_site_probe()
    )
    return SanCheckResult(
        static_sites=sorted(static),
        dynamic_sites=sorted(dynamic),
        unknown=sorted(dynamic - static),
        unexercised=sorted(static - dynamic),
    )
