"""Suppressed-findings baseline ratchet of ``repro check``.

Mirrors the mypy overrides ratchet (``tools/mypy_ratchet.txt``): the
checked-in baseline ``tools/analysis_baseline.txt`` freezes the
inventory of *suppressed* findings — every pragma/exemption that
actually silences something today. The ratchet then only turns one way:

* a **new** suppressed finding (a fresh ``# simlint: disable=`` that
  hides a real hit) fails the check until the baseline is deliberately
  regenerated and reviewed;
* a **stale** baseline entry (the suppression was removed or the code
  fixed) also fails, forcing the baseline to shrink in the same commit.

Unsuppressed findings are not the baseline's business — they already
fail the run directly, and neither are files outside the repository. A
run is held only to the entries it could have produced: entries for
rules it ran, in files under the paths it analyzed (so a deleted file's
entry is stale for any run over its directory). The file format is one
entry per line::

    path::RULE::count

with ``#`` comments and blank lines ignored; paths use forward slashes
relative to the repo root. Regenerate with
``repro check --write-baseline``.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.analysis.runner import AnalysisResult

#: The repository root: baseline keys are relative to it.
REPO_ROOT = Path(__file__).resolve().parents[3]

#: The one findings baseline.
BASELINE_PATH = REPO_ROOT / "tools" / "analysis_baseline.txt"

#: (baseline key, rule id) -> suppressed-finding count.
Inventory = Dict[Tuple[str, str], int]

_HEADER = (
    "# Suppressed-findings baseline (see repro.analysis.baseline).\n"
    "# One line per `path::RULE::count`; regenerate with "
    "`repro check --write-baseline`.\n"
    "# New suppressions fail the check; removed ones must shrink this file.\n"
)


def normalize_path(path: str) -> str:
    """Forward slashes, no leading ``./``."""
    normalized = path.replace(os.sep, "/").replace("\\", "/")
    while normalized.startswith("./"):
        normalized = normalized[2:]
    return normalized


def baseline_key(path: str) -> Optional[str]:
    """The baseline key of a path: relative to the repo root.

    Independent of the working directory and of how the path was
    spelled, so the ratchet means the same from anywhere. None for a
    path outside the repository; ``""`` for the root itself.
    """
    try:
        relative = Path(path).resolve().relative_to(REPO_ROOT)
    except ValueError:
        return None
    return "" if relative == Path() else normalize_path(str(relative))


def inventory_of(result: AnalysisResult) -> Inventory:
    """The suppressed-finding inventory of one run."""
    inventory: Inventory = {}
    for finding in result.suppressed:
        path = baseline_key(finding.path)
        if path is not None:
            key = (path, finding.rule)
            inventory[key] = inventory.get(key, 0) + 1
    return inventory


def _covered(result: AnalysisResult, frozen: Inventory) -> Inventory:
    """The entries of ``frozen`` that ``result`` could have produced."""
    roots = [
        key for key in map(baseline_key, result.paths) if key is not None
    ]
    rules = set(result.rules_run)
    return {
        (path, rule): count
        for (path, rule), count in frozen.items()
        if rule in rules
        and any(
            root in ("", path) or path.startswith(root + "/") for root in roots
        )
    }


def check_baseline(result: AnalysisResult, frozen: Inventory) -> List[str]:
    """Diff the run's suppression inventory against the frozen baseline.

    Returns human-readable violations; empty means the ratchet holds.
    """
    current = inventory_of(result)
    expected = _covered(result, frozen)
    errors: List[str] = []
    for key in sorted(set(current) | set(expected)):
        path, rule = key
        have = current.get(key, 0)
        want = expected.get(key, 0)
        if have > want:
            errors.append(
                f"{path}: {have - want} new suppressed {rule} finding"
                f"{'s' if have - want != 1 else ''} not in the baseline "
                "(fix the code or regenerate the baseline deliberately)"
            )
        elif have < want:
            errors.append(
                f"{path}: baseline expects {want} suppressed {rule} "
                f"finding{'s' if want != 1 else ''} but only {have} remain "
                "— shrink the baseline (run --write-baseline)"
            )
    return errors


def updated_baseline(result: AnalysisResult, frozen: Inventory) -> Inventory:
    """``frozen`` with the entries this run covers replaced by its own."""
    covered = _covered(result, frozen)
    kept = {key: count for key, count in frozen.items() if key not in covered}
    kept.update(inventory_of(result))
    return kept


def render_baseline(inventory: Inventory) -> str:
    lines = [_HEADER.rstrip("\n")]
    for (path, rule), count in sorted(inventory.items()):
        lines.append(f"{path}::{rule}::{count}")
    return "\n".join(lines) + "\n"


def parse_baseline(text: str, origin: str = "<baseline>") -> Inventory:
    inventory: Inventory = {}
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("::")
        if len(parts) != 3 or not parts[2].isdigit():
            raise ValueError(
                f"{origin}:{number}: malformed baseline entry {line!r} "
                "(expected path::RULE::count)"
            )
        key = (normalize_path(parts[0]), parts[1])
        inventory[key] = inventory.get(key, 0) + int(parts[2])
    return inventory


def load_baseline_file(path: Path) -> Inventory:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_baseline(handle.read(), origin=str(path))
