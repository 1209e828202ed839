"""Shared benchmark configuration.

Each benchmark regenerates one figure of the paper: it runs the figure's
experiment driver once (``rounds=1`` — these are simulation campaigns,
not micro-benchmarks), prints the same rows/series the paper reports,
and asserts the headline *direction* of the result (who wins), which is
the claim the reproduction makes.

Set ``REPRO_BENCH_QUICK=1`` to run reduced sweeps (useful in CI).
"""

import os

import pytest

#: Reduced sweeps when set (shorter windows, fewer points).
QUICK = bool(int(os.environ.get("REPRO_BENCH_QUICK", "0")))


@pytest.fixture(scope="session")
def quick() -> bool:
    return QUICK


def run_figure(benchmark, module, quick_flag):
    """Run a figure experiment under pytest-benchmark and print it.

    The rendered tables under ``results/`` come from
    ``python -m repro.experiments.run_all``; this only asserts shape.
    """
    out = benchmark.pedantic(
        module.run, kwargs=dict(quick=quick_flag), rounds=1, iterations=1
    )
    print()
    print(out.render())
    return out
