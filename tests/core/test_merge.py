"""The canonical earliest-ending k-way merge is independent of how the
keys are partitioned into runs — the property Phase 2 relies on across
marked subtrees."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.slot_tree import merge_earliest


@given(
    keys=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            st.integers(min_value=0, max_value=10_000),
        ),
        max_size=60,
        unique=True,
    ),
    cuts=st.lists(st.integers(min_value=0, max_value=59), max_size=6),
    need=st.integers(min_value=0, max_value=70),
)
@settings(max_examples=150, deadline=None)
def test_merge_earliest_equals_global_sort_for_any_partition(keys, cuts, need):
    """Partition an arbitrary (et, uid) key set into contiguous sorted
    runs at arbitrary cut points: merging the runs must yield exactly
    the ``need``-smallest keys of the whole set, in order."""
    ordered = sorted(keys)
    bounds = sorted({0, len(ordered), *[c for c in cuts if c <= len(ordered)]})
    runs = [
        (ordered[lo:hi], 0)
        for lo, hi in zip(bounds, bounds[1:])
        if hi > lo
    ]
    merged = merge_earliest(runs, need)
    assert merged == ordered[: min(need, len(ordered))]
