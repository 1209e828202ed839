"""Pinned numbers do not depend on how the interpreter adds floats.

From Python 3.12 builtin ``sum`` compensates its rounding (Neumaier), so
a float total reached through ``sum`` can differ in the last bit from
the 3.11 total the goldens and figure digests were pinned with. Model
and report paths add floats with :func:`repro.sim.stats.fold_sum`
instead. Here builtin ``sum`` is swapped for a compensated one, and the
runs that a compensated ``sum`` used to move must give the same digests
as without the swap: quick Fig. 6 and Fig. 14 and a short
``udp-stress-vanilla`` run.
"""

import builtins
import dataclasses
import hashlib
import json

import pytest

from repro.experiments import fig06_flamegraph, fig14_multicontainer
from repro.sim.stats import fold_sum
from repro.validate.golden import figure_digest
from repro.workloads.sockperf import Testbed

_builtin_sum = builtins.sum


def compensated_sum(iterable, /, start=0):
    """``sum`` with 3.12's float behaviour: a Neumaier-compensated total.

    Anything that is not all ints and floats, or holds no float, is
    left to builtin ``sum``.
    """
    items = list(iterable)
    numbers = all(isinstance(item, (int, float)) for item in items)
    if not (numbers and isinstance(start, (int, float))) or not any(
        isinstance(item, float) for item in [start, *items]
    ):
        return _builtin_sum(items, start)
    total = float(start)
    compensation = 0.0
    for item in items:
        item = float(item)
        running = total + item
        if abs(total) >= abs(item):
            compensation += (total - running) + item
        else:
            compensation += (item - running) + total
        total = running
    return total + compensation


def udp_stress_vanilla_digest():
    """simbench's ``udp-stress-vanilla`` traffic over a short window."""
    bed = Testbed(mode="overlay", seed=1)
    bed.add_udp_flow(1024, clients=3)
    result = bed.run(warmup_ms=2.0, measure_ms=6.0)
    text = json.dumps(dataclasses.asdict(result), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def digests():
    return {
        "fig06": figure_digest(fig06_flamegraph.run(quick=True).series),
        "fig14": figure_digest(fig14_multicontainer.run(quick=True).series),
        "udp-stress-vanilla": udp_stress_vanilla_digest(),
    }


def test_compensated_sum_differs_from_a_left_fold():
    """The swap below is not vacuous: the two sums disagree on floats."""
    values = [0.1] * 10
    assert compensated_sum(values) == 1.0
    assert fold_sum(values) == 0.9999999999999999


def test_digests_do_not_depend_on_builtin_sum(monkeypatch):
    plain = digests()
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert digests() == plain


@pytest.mark.parametrize("values", [[], [1, 2], [0.5, 0.25, 2], [-0.0]])
def test_fold_sum_adds_like_a_plain_loop(values):
    total = 0
    for value in values:
        total += value
    assert fold_sum(values) == total
    assert type(fold_sum(values)) is type(total)
