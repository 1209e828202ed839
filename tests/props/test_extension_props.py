"""Property tests for the extension modules (fair share)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fairshare import partition_cpus

tenant_names = st.lists(
    st.text(alphabet="abcdefgh", min_size=1, max_size=4),
    min_size=1,
    max_size=6,
    unique=True,
)


@settings(max_examples=200)
@given(
    names=tenant_names,
    weights_seed=st.data(),
    num_cpus=st.integers(min_value=1, max_value=32),
)
def test_partition_covers_disjoint_and_weight_ordered(names, weights_seed, num_cpus):
    if num_cpus < len(names):
        return  # rejected by validation; covered in unit tests
    weights = {
        name: weights_seed.draw(
            st.floats(min_value=0.1, max_value=100.0), label=name
        )
        for name in names
    }
    cpus = list(range(100, 100 + num_cpus))
    partitions = partition_cpus(cpus, weights)
    flat = [cpu for part in partitions.values() for cpu in part]
    # Cover exactly, no overlap.
    assert sorted(flat) == cpus
    # Everyone got at least one CPU.
    assert all(len(part) >= 1 for part in partitions.values())
    # Allocation respects weight ordering up to the ±1 CPU granularity of
    # largest-remainder rounding.
    for a in names:
        for b in names:
            if weights[a] >= 2 * weights[b]:
                assert len(partitions[a]) + 1 >= len(partitions[b])
