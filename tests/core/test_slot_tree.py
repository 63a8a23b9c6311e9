"""Unit tests for the 2-dimensional slot tree (Section 4.1)."""

import math
import random

import pytest

from repro.core.opcount import OpCounter
from repro.core.slot_tree import TwoDimTree
from repro.core.types import INF, IdlePeriod
from repro.verify.oracle import ReferenceTree

from ..conftest import make_periods


def naive_candidates(periods, sr):
    return [p for p in periods if p.st <= sr]


def naive_feasible(periods, sr, er):
    return [p for p in periods if p.st <= sr and p.et >= er]


class TestBasics:
    def test_empty_tree(self):
        tree = TwoDimTree()
        assert len(tree) == 0
        assert list(tree.periods()) == []
        tree.validate()

    def test_single_insert(self):
        tree = TwoDimTree()
        p = IdlePeriod(server=0, st=1.0, et=10.0, uid=0)
        tree.insert(p)
        assert len(tree) == 1
        assert p in tree
        tree.validate()

    def test_insert_many_keeps_start_order(self):
        tree = TwoDimTree()
        periods = make_periods(50, seed=3)
        for p in periods:
            tree.insert(p)
        stored = list(tree.periods())
        assert [(p.st, p.uid) for p in stored] == sorted((p.st, p.uid) for p in periods)
        tree.validate()

    def test_remove_to_empty(self):
        tree = TwoDimTree()
        periods = make_periods(10, seed=1)
        for p in periods:
            tree.insert(p)
        for p in periods:
            tree.remove(p)
            tree.validate()
        assert len(tree) == 0

    def test_remove_missing_raises(self):
        tree = TwoDimTree()
        p, q = make_periods(2, seed=2)
        tree.insert(p)
        with pytest.raises(KeyError):
            tree.remove(q)

    def test_contains_distinguishes_equal_intervals(self):
        tree = TwoDimTree()
        a = IdlePeriod(server=0, st=1.0, et=5.0, uid=0)
        b = IdlePeriod(server=1, st=1.0, et=5.0, uid=1)
        tree.insert(a)
        assert a in tree
        assert b not in tree

    def test_duplicate_start_times(self):
        tree = TwoDimTree()
        periods = [IdlePeriod(server=i, st=5.0, et=10.0 + i, uid=i) for i in range(20)]
        for p in periods:
            tree.insert(p)
        tree.validate()
        assert len(tree) == 20
        for p in periods:
            tree.remove(p)
        assert len(tree) == 0

    def test_infinite_end_times(self):
        tree = TwoDimTree()
        periods = [IdlePeriod(server=i, st=float(i), et=INF, uid=i) for i in range(8)]
        for p in periods:
            tree.insert(p)
        tree.validate()
        found = tree.find_feasible(7.0, 1e15, 8)
        assert found is not None and len(found) == 8


class TestBulkLoad:
    def test_bulk_load_matches_inserts(self):
        periods = make_periods(37, seed=5)
        a, b = TwoDimTree(), TwoDimTree()
        a.bulk_load(periods)
        for p in periods:
            b.insert(p)
        a.validate()
        assert [p.uid for p in a.periods()] == [p.uid for p in b.periods()]

    def test_bulk_load_empty(self):
        tree = TwoDimTree()
        tree.bulk_load([])
        assert len(tree) == 0

    def test_bulk_load_replaces_contents(self):
        tree = TwoDimTree()
        tree.insert(IdlePeriod(server=0, st=0.0, et=1.0, uid=0))
        fresh = make_periods(5, seed=6, first_uid=1)
        tree.bulk_load(fresh)
        assert len(tree) == 5
        assert {p.uid for p in tree.periods()} == {p.uid for p in fresh}


class TestFailedBatchChangesNothing:
    @pytest.mark.parametrize("n_real", [1, 60], ids=["small-batch", "tree-sized-batch"])
    @pytest.mark.parametrize("fault", ["ghost", "listed-twice"])
    def test_failed_batch_leaves_tree_map_buffer_and_counter_as_they_were(
        self, n_real, fault
    ):
        """A batch naming a removal the tree does not hold, or naming one
        twice, is refused before anything is applied."""
        counter = OpCounter()
        tree = TwoDimTree(counter)
        periods = [IdlePeriod(server=s, st=float(s % 7), et=50.0 + s, uid=s) for s in range(100)]
        tree.bulk_load(periods)
        incoming = [IdlePeriod(server=200 + s, st=3.5, et=80.0, uid=200 + s) for s in range(n_real)]
        removals = periods[:n_real]
        if fault == "ghost":
            removals = removals + [IdlePeriod(server=99, st=3.5, et=60.0, uid=1000)]
        else:
            removals = removals + removals[:1]
        before = (
            [p.uid for p in tree.periods()],
            len(tree),
            dict(tree._by_uid),
            counter.snapshot(),
        )
        with pytest.raises(KeyError):
            tree.apply_batch(removals, incoming)
        assert not tree._ins and not tree._rem
        assert before == (
            [p.uid for p in tree.periods()],
            len(tree),
            dict(tree._by_uid),
            counter.snapshot(),
        )
        tree.validate()
        # and the same batch without the fault still goes through
        tree.apply_batch(periods[:n_real], incoming)
        assert len(tree) == 100
        tree.validate()


class TestPhase1:
    def test_candidate_count_matches_naive(self):
        periods = make_periods(60, seed=7)
        tree = TwoDimTree()
        tree.bulk_load(periods)
        for sr in [0.0, 25.0, 50.0, 75.0, 100.0, 150.0]:
            count, _ = tree.phase1(sr)
            assert count == len(naive_candidates(periods, sr))

    def test_candidates_cover_exact_prefix(self):
        periods = make_periods(40, seed=8)
        tree = TwoDimTree()
        tree.bulk_load(periods)
        spec = ReferenceTree()
        spec.bulk_load(periods)
        sr, er = 50.0, 120.0
        count, marks = tree.phase1(sr)
        spec_count, candidates = spec.phase1(sr)
        assert count == spec_count
        # a full Phase 2 over the marks lists what the marks cover: exactly
        # the candidates (er = -inf), and exactly those ending at or after er
        for bound in (-INF, er):
            assert [p.uid for p in tree.phase2(marks, bound, math.inf)] == [
                p.uid for p in spec.phase2(candidates, bound, math.inf)
            ]

    def test_marks_bounded_by_log(self):
        periods = make_periods(256, seed=9)
        tree = TwoDimTree()
        tree.bulk_load(periods)
        _, marks = tree.phase1(50.0)
        # canonical decomposition of a prefix: at most ceil(log2 n) + 1 subtrees
        assert len(marks) <= math.ceil(math.log2(256)) + 1

    def test_boundary_start_time_inclusive(self):
        # candidate rule is st <= sr (inclusive)
        p = IdlePeriod(server=0, st=10.0, et=20.0, uid=0)
        tree = TwoDimTree()
        tree.insert(p)
        assert tree.count_candidates(10.0) == 1
        assert tree.count_candidates(9.999) == 0

    def test_empty_tree_phase1(self):
        tree = TwoDimTree()
        count, marks = tree.phase1(10.0)
        assert count == 0 and marks == []


class TestPhase2:
    def test_finds_exactly_feasible(self):
        periods = make_periods(60, seed=10)
        tree = TwoDimTree()
        tree.bulk_load(periods)
        sr, er = 50.0, 150.0
        found = tree.find_feasible(sr, er, 1)
        naive = naive_feasible(periods, sr, er)
        if naive:
            assert found is not None
            assert all(p.is_feasible(sr, er) for p in found)
        else:
            assert found is None

    def test_returns_requested_count(self):
        periods = [IdlePeriod(server=i, st=0.0, et=100.0, uid=i) for i in range(16)]
        tree = TwoDimTree()
        tree.bulk_load(periods)
        found = tree.find_feasible(10.0, 50.0, 5)
        assert found is not None and len(found) == 5
        assert len({p.uid for p in found}) == 5  # distinct periods

    def test_insufficient_feasible_returns_none(self):
        periods = [IdlePeriod(server=i, st=0.0, et=40.0, uid=i) for i in range(3)]
        periods.append(IdlePeriod(server=3, st=0.0, et=100.0, uid=3))
        tree = TwoDimTree()
        tree.bulk_load(periods)
        # only one period survives the et >= 50 test
        assert tree.find_feasible(10.0, 50.0, 2) is None
        found = tree.find_feasible(10.0, 50.0, 1)
        assert found is not None and found[0].et == 100.0

    def test_partial_mode_returns_shortfall(self):
        periods = [IdlePeriod(server=i, st=0.0, et=40.0 + 20.0 * i, uid=i) for i in range(3)]
        tree = TwoDimTree()
        tree.bulk_load(periods)
        count, marks = tree.phase1(10.0)
        assert count == 3
        got = tree.phase2(marks, 50.0, 5, partial=True)
        assert got is not None
        assert sorted(p.et for p in got) == [60.0, 80.0]

    def test_boundary_end_time_inclusive(self):
        # feasibility rule is et >= er (inclusive)
        p = IdlePeriod(server=0, st=0.0, et=50.0, uid=0)
        tree = TwoDimTree()
        tree.insert(p)
        assert tree.find_feasible(0.0, 50.0, 1) is not None
        assert tree.find_feasible(0.0, 50.001, 1) is None

    def test_prefers_globally_earliest_ending(self):
        # canonical selection: among every feasible candidate the
        # earliest-ending periods win (best fit — long periods stay free
        # for long requests), regardless of how phase 1 happened to
        # partition the candidates into marked subtrees
        periods = [IdlePeriod(server=i, st=0.0, et=60.0 + i * 10.0, uid=i) for i in range(8)]
        tree = TwoDimTree()
        tree.bulk_load(periods)
        found = tree.find_feasible(0.0, 55.0, 3)
        assert found is not None
        assert [p.et for p in found] == [60.0, 70.0, 80.0]

    def test_equal_endings_tie_break_on_uid(self):
        # ... and ties on ending time fall back to uid (creation order),
        # the persisted tie-break that makes a snapshot-restored calendar
        # choose byte-identical servers
        early = IdlePeriod(server=0, st=0.0, et=100.0, uid=0)
        late = IdlePeriod(server=1, st=40.0, et=100.0, uid=1)
        tree = TwoDimTree()
        tree.insert(early)
        tree.insert(late)
        found = tree.find_feasible(50.0, 90.0, 1)
        assert found is not None and found[0].uid == early.uid

    def test_selection_is_independent_of_tree_shape(self):
        # the load-bearing property behind the service's kill/restart
        # checksum identity: a tree grown by interleaved inserts/removes
        # and a bulk-loaded tree over the same periods choose the same
        # servers, even though their internal partitions differ
        periods = [
            IdlePeriod(server=i, st=float(i % 5), et=50.0 + 7.0 * ((i * 3) % 11), uid=i)
            for i in range(40)
        ]
        evolved = TwoDimTree()
        for p in periods:
            evolved.insert(p)
        for p in periods[::3]:
            evolved.remove(p)
        survivors = [p for i, p in enumerate(periods) if i % 3 != 0]
        rebuilt = TwoDimTree()
        rebuilt.bulk_load(sorted(survivors, key=lambda p: (p.st, p.uid)))
        for sr, er, nr in [(4.0, 60.0, 3), (2.0, 90.0, 5), (4.0, 110.0, 2)]:
            a = evolved.find_feasible(sr, er, nr)
            b = rebuilt.find_feasible(sr, er, nr)
            assert a is not None and b is not None
            assert [p.uid for p in a] == [p.uid for p in b]


class TestRangeSearch:
    def test_range_search_returns_all_covering(self):
        periods = make_periods(50, seed=11)
        tree = TwoDimTree()
        tree.bulk_load(periods)
        ta, tb = 60.0, 140.0
        found = tree.range_search(ta, tb)
        assert sorted(p.uid for p in found) == sorted(
            p.uid for p in naive_feasible(periods, ta, tb)
        )

    def test_range_search_empty_result(self):
        tree = TwoDimTree()
        tree.insert(IdlePeriod(server=0, st=10.0, et=20.0, uid=0))
        assert tree.range_search(0.0, 5.0) == []


class TestBalanceAndCounting:
    def test_sorted_insertion_stays_balanced(self):
        # monotone keys: the worst case for a tree that rebalances
        tree = TwoDimTree()
        for i in range(200):
            tree.insert(IdlePeriod(server=0, st=float(i), et=1000.0 + i, uid=i))
        tree.validate()

    def test_reverse_sorted_insertion_stays_balanced(self):
        tree = TwoDimTree()
        for i in reversed(range(200)):
            tree.insert(IdlePeriod(server=0, st=float(i), et=1000.0 + i, uid=i))
        tree.validate()

    def test_counter_records_operations(self):
        counter = OpCounter()
        tree = TwoDimTree(counter)
        for p in make_periods(20, seed=12):
            tree.insert(p)
        tree.find_feasible(50.0, 150.0, 2)
        assert counter.get("insert") == 20
        assert counter.get("node_visit") > 0

    def test_churn_preserves_invariants(self):
        rng = random.Random(99)
        tree = TwoDimTree()
        live = []
        for step in range(500):
            if live and rng.random() < 0.45:
                tree.remove(live.pop(rng.randrange(len(live))))
            else:
                p = IdlePeriod(
                    server=rng.randrange(16),
                    st=rng.uniform(0, 100),
                    et=rng.uniform(100, 200),
                    uid=step,
                )
                tree.insert(p)
                live.append(p)
            if step % 50 == 0:
                tree.validate()
        tree.validate()
        assert len(tree) == len(live)
