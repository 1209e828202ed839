"""The four-datapath-regime contract on the ramp workload.

The tentpole claims, asserted end to end on the same warm-then-stress
multiflow workload `fig21_flowcache` measures:

* a warm cache beats vanilla outright (throughput up, service time
  down) — the fast path really skips the slow device chain;
* composing the cache with Falcon is at least as good as either alone;
* the ordering gate holds: the cache regimes deliver with *zero*
  reordered messages (Falcon alone is allowed to reorder across its
  rebalancing decisions; the cache is not).
"""

import pytest

from repro.experiments.fig21_flowcache import run_ramp_regime

WARMUP_MS = 3.0
MEASURE_MS = 6.0
SEED = 3


@pytest.fixture(scope="module")
def regimes():
    out = {}
    for label, use_falcon, use_cache in (
        ("vanilla", False, False),
        ("falcon", True, False),
        ("oncache", False, True),
        ("oncache_falcon", True, True),
    ):
        out[label] = run_ramp_regime(
            use_falcon,
            use_cache,
            warmup_ms=WARMUP_MS,
            measure_ms=MEASURE_MS,
            seed=SEED,
        )
    return out


def test_warm_cache_beats_vanilla(regimes):
    vanilla, oncache = regimes["vanilla"], regimes["oncache"]
    assert oncache.message_rate_pps > vanilla.message_rate_pps * 1.2
    assert oncache.avg_latency_us < vanilla.avg_latency_us
    assert oncache.cache_hit_rate > 0.9
    assert oncache.fastpath_deliveries > 0


def test_composition_is_at_least_each_alone(regimes):
    both = regimes["oncache_falcon"]
    assert both.message_rate_pps >= regimes["falcon"].message_rate_pps
    assert both.message_rate_pps >= regimes["oncache"].message_rate_pps
    assert both.cache_hit_rate > 0.9


def test_cache_regimes_never_reorder(regimes):
    assert regimes["oncache"].reordered_messages == 0
    assert regimes["oncache_falcon"].reordered_messages == 0
    # Sanity: vanilla is in-order by construction too.
    assert regimes["vanilla"].reordered_messages == 0


def test_vanilla_and_falcon_never_touch_the_cache(regimes):
    for label in ("vanilla", "falcon"):
        assert regimes[label].cache_hit_rate == 0.0
        assert regimes[label].fastpath_deliveries == 0
