"""Property-based tests for the 2-dimensional slot tree.

The tree is an *index*; every query must agree with a brute-force scan of
the same period set, and every mutation must preserve the structural
invariants checked by ``validate()``.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.opcount import OpCounter
from repro.core.slot_tree import TwoDimTree
from repro.core.types import INF, IdlePeriod

# bounded floats that can't collapse intervals via rounding
_times = st.floats(min_value=0.0, max_value=1000.0, allow_nan=False, width=32)


@st.composite
def period_lists(draw, max_size=40):
    n = draw(st.integers(min_value=0, max_value=max_size))
    periods = []
    for _ in range(n):
        a = draw(_times)
        b = draw(_times)
        lo, hi = min(a, b), max(a, b)
        if lo == hi:
            hi = lo + 1.0
        if draw(st.booleans()) and draw(st.integers(0, 9)) == 0:
            hi = INF  # occasional unbounded period
        periods.append(IdlePeriod(server=draw(st.integers(0, 15)), st=lo, et=hi))
    return periods


@st.composite
def churn_scripts(draw):
    """A sequence of insert/remove operations (remove picks a live index)."""
    return draw(
        st.lists(
            st.tuples(st.sampled_from(["insert", "remove"]), st.integers(0, 10**6)),
            max_size=80,
        )
    )


class TestQueriesAgainstBruteForce:
    @given(periods=period_lists(), sr=_times)
    @settings(max_examples=150, deadline=None)
    def test_phase1_count_matches_naive(self, periods, sr):
        tree = TwoDimTree()
        tree.bulk_load(periods)
        count, _ = tree.phase1(sr)
        assert count == sum(1 for p in periods if p.st <= sr)

    @given(periods=period_lists(), sr=_times, dur=_times)
    @settings(max_examples=150, deadline=None)
    def test_feasible_set_matches_naive(self, periods, sr, dur):
        tree = TwoDimTree()
        tree.bulk_load(periods)
        er = sr + dur
        naive = {p.uid for p in periods if p.st <= sr and p.et >= er}
        found = tree.range_search(sr, er) if sr < er else None
        if sr < er:
            assert {p.uid for p in found} == naive

    @given(periods=period_lists(), sr=_times, dur=_times, nr=st.integers(1, 10))
    @settings(max_examples=150, deadline=None)
    def test_find_feasible_verdict_matches_naive(self, periods, sr, dur, nr):
        tree = TwoDimTree()
        tree.bulk_load(periods)
        er = sr + max(dur, 1.0)
        n_feasible = sum(1 for p in periods if p.st <= sr and p.et >= er)
        found = tree.find_feasible(sr, er, nr)
        if n_feasible >= nr:
            assert found is not None and len(found) == nr
            assert all(p.is_feasible(sr, er) for p in found)
            assert len({p.uid for p in found}) == nr
        else:
            assert found is None


class TestStructuralInvariants:
    @given(periods=period_lists())
    @settings(max_examples=100, deadline=None)
    def test_bulk_load_valid(self, periods):
        tree = TwoDimTree()
        tree.bulk_load(periods)
        tree.validate()
        assert len(tree) == len(periods)

    @given(periods=period_lists(), script=churn_scripts())
    @settings(max_examples=100, deadline=None)
    def test_churn_preserves_invariants_and_contents(self, periods, script):
        tree = TwoDimTree()
        live: list[IdlePeriod] = []
        pool = list(periods)
        for op, pick in script:
            if op == "insert" and pool:
                p = pool.pop(pick % len(pool))
                tree.insert(p)
                live.append(p)
            elif op == "remove" and live:
                p = live.pop(pick % len(live))
                tree.remove(p)
        tree.validate()
        assert sorted(p.uid for p in tree.periods()) == sorted(p.uid for p in live)

    @given(periods=period_lists(max_size=60), sr=_times)
    @settings(max_examples=60, deadline=None)
    def test_depth_is_logarithmic(self, periods, sr):
        """One search descends, and marks, at most ⌈log2 n⌉ + 1 nodes."""
        counter = OpCounter()
        tree = TwoDimTree(counter)
        for p in periods:
            tree.insert(p)
        if not periods:
            return
        assert len(tree) == len(periods)  # a read: the buffered inserts are applied
        counter.reset()
        tree.phase1(sr)
        bound = math.ceil(math.log2(len(periods))) + 1
        assert counter.get("node_visit") <= bound
        assert counter.get("mark") <= bound
