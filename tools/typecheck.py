#!/usr/bin/env python3
"""Run the ``mypy --strict`` gate over the typed packages.

The simulation core (``repro.sim``), the kernel model entry points
(``repro.kernel``) and the static-analysis pass (``repro.analysis``)
are type-checked strictly; modules listed in the pyproject ratchet
(mirrored in ``tools/mypy_ratchet.txt``) still have errors ignored.

mypy is an optional tool dependency — this container image does not
ship it. Without ``--require`` the script prints a notice and exits 0
when mypy is missing, so local test runs and pre-commit stay green;
CI passes ``--require`` so the gate cannot silently vanish there.
"""

from __future__ import annotations

import argparse
import importlib.util
import subprocess
import sys
from pathlib import Path
from typing import List, Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Package trees under the strict gate (the ratchet carves out modules).
TARGETS: List[str] = [
    "src/repro/sim",
    "src/repro/kernel",
    "src/repro/analysis",
]


def mypy_available() -> bool:
    return importlib.util.find_spec("mypy") is not None


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--require",
        action="store_true",
        help="exit nonzero when mypy is not installed (for CI)",
    )
    args = parser.parse_args(argv)

    if not mypy_available():
        if args.require:
            print(
                "typecheck: mypy is required (--require) but not installed",
                file=sys.stderr,
            )
            return 1
        print(
            "typecheck: mypy not installed; skipping the strict gate "
            "(install mypy, or let CI run it)"
        )
        return 0

    command = [sys.executable, "-m", "mypy", *TARGETS]
    print("typecheck:", " ".join(command))
    return subprocess.call(command, cwd=REPO_ROOT)


if __name__ == "__main__":
    raise SystemExit(main())
