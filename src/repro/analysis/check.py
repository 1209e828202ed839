"""``repro check``: the one entry point of the static analyzer.

One run, two steps; the report fails if any step fails:

* ``rules`` — every rule family (:mod:`repro.analysis.runner`) in one
  pass over one parse of the paths, held to the suppressed-findings
  baseline ``tools/analysis_baseline.txt``
  (:mod:`repro.analysis.baseline`);
* ``mypy`` — the ratcheted strict gate (``tools/typecheck.py``). mypy is
  an optional tool dependency: when it is not installed the step reports
  ``skipped`` and does not fail the run unless ``require_mypy`` is set
  (CI mode).
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis import baseline
from repro.analysis.runner import AnalysisResult, analyze

_TYPECHECK = Path(__file__).resolve().parents[3] / "tools" / "typecheck.py"


@dataclass(frozen=True)
class CheckStep:
    """Outcome of one step of the check."""

    name: str
    ok: bool
    skipped: bool = False
    summary: str = ""


@dataclass
class CheckReport:
    """Outcome of one ``repro check`` run."""

    analysis: AnalysisResult
    baseline_errors: List[str]
    steps: List[CheckStep] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(step.ok for step in self.steps)

    def to_text(self) -> str:
        lines = [str(finding) for finding in self.analysis.findings]
        lines.extend(f"baseline: {error}" for error in self.baseline_errors)
        for step in self.steps:
            status = "SKIP" if step.skipped else "ok" if step.ok else "FAILED"
            lines.append(f"{step.name:<6} {status:<7} {step.summary}")
        lines.append("check OK" if self.ok else "check FAILED")
        return "\n".join(lines)

    def to_json(self) -> str:
        payload = {
            "ok": self.ok,
            "steps": [
                {
                    "name": step.name,
                    "ok": step.ok,
                    "skipped": step.skipped,
                    "summary": step.summary,
                }
                for step in self.steps
            ],
            "rules": {
                **self.analysis.to_dict(),
                "baseline_errors": self.baseline_errors,
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def _mypy_step(require_mypy: bool) -> CheckStep:
    if importlib.util.find_spec("mypy") is None:
        if require_mypy:
            return CheckStep(
                name="mypy",
                ok=False,
                summary="mypy required but not installed",
            )
        return CheckStep(
            name="mypy",
            ok=True,
            skipped=True,
            summary="mypy not installed; strict gate skipped",
        )
    command = [sys.executable, str(_TYPECHECK)]
    if require_mypy:
        command.append("--require")
    proc = subprocess.run(
        command, cwd=_TYPECHECK.parents[1], capture_output=True, text=True
    )
    tail = (proc.stdout or proc.stderr).strip().splitlines()
    return CheckStep(
        name="mypy",
        ok=proc.returncode == 0,
        summary=tail[-1] if tail else f"exit {proc.returncode}",
    )


def run_check(
    paths: Sequence[str] = ("src",),
    require_mypy: bool = False,
    rule_ids: Optional[Sequence[str]] = None,
    write_baseline: bool = False,
) -> CheckReport:
    """Run the rules, the baseline ratchet and mypy.

    ``write_baseline`` first rewrites the entries of the baseline this
    run covers from its own suppressions. Raises ``ValueError`` for an
    unknown rule id, a missing path, a run with no ``.py`` file or a
    malformed baseline, and ``OSError`` when the baseline is unreadable.
    """
    analysis = analyze(paths, rule_ids=rule_ids)
    frozen = baseline.load_baseline_file(baseline.BASELINE_PATH)
    if write_baseline:
        frozen = baseline.updated_baseline(analysis, frozen)
        baseline.BASELINE_PATH.write_text(
            baseline.render_baseline(frozen), encoding="utf-8"
        )
    drift = baseline.check_baseline(analysis, frozen)
    report = CheckReport(analysis=analysis, baseline_errors=drift)
    report.steps.append(
        CheckStep(
            name="rules",
            ok=analysis.ok and not drift,
            summary=analysis.summary()
            + (f"; {len(drift)} baseline error(s)" if drift else ""),
        )
    )
    report.steps.append(_mypy_step(require_mypy))
    return report
