"""Unit tests for the 2-dimensional slot tree (Section 4.1)."""

import math
import random

import pytest

from repro.analysis.audit import audit_tree
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


class TestEmptyTreeBulkPath:
    """A batch is settled by one sort however its keys arrive."""

    def test_same_start_ascending_uid_batch_is_built_not_walked(self):
        # what a wide reservation leaves in one slot: equal starts, ever
        # larger uids — the worst case for one-by-one insertion
        periods = [IdlePeriod(server=s, st=100.0, et=200.0 + s, uid=s) for s in range(64)]
        counter = OpCounter()
        tree = TwoDimTree(counter)
        tree.apply_batch([], periods)
        assert len(tree) == 64 and tree.max_end() == 263.0
        assert audit_tree(tree) == []
        assert [p.uid for p in tree.periods()] == [p.uid for p in periods]
        # the implied tree is perfectly balanced: a full-prefix walk takes
        # one step per level
        counter.reset()
        count, marks = tree.phase1(100.0)
        assert count == 64
        assert counter.get("node_visit") == len(marks) == math.ceil(math.log2(64)) + 1

    def test_bulk_load_is_a_batch_on_an_empty_tree(self):
        old = [IdlePeriod(server=s, st=float(s), et=9.0, uid=s) for s in range(5)]
        new = [IdlePeriod(server=s, st=5.0 - s, et=20.0 + s, uid=5 + s) for s in range(3)]
        loaded, batched = TwoDimTree(), TwoDimTree()
        loaded.bulk_load(old)
        loaded.bulk_load(new)
        batched.apply_batch([], new)
        assert loaded._leaves == batched._leaves
        assert (len(loaded), loaded.max_end()) == (len(batched), batched.max_end()) == (3, 22.0)
        assert audit_tree(loaded) == []
        loaded.bulk_load([])
        assert (loaded._leaves, len(loaded), loaded.max_end()) == ([], 0, -math.inf)

    def test_removal_from_an_empty_tree_fails(self):
        ghosts = [IdlePeriod(server=s, st=1.0, et=2.0, uid=s) for s in range(3)]
        for removals, inserts in ((ghosts[:1], []), (ghosts[:1], ghosts[1:])):
            tree = TwoDimTree()
            with pytest.raises(KeyError):
                tree.apply_batch(removals, inserts)
            assert len(tree) == 0 and tree._leaves == [] and not tree._by_uid


class TestImplicitTree:
    """Phase 1 walks the ``mid = (lo + hi + 1) // 2`` tree, and a
    secondary index exists only for a node some search bisected since
    the last update."""

    def test_phase1_walks_the_midpoint_tree(self):
        # seven leaves: root splits 4 | 3, then 2 | 2 and 2 | 1
        periods = [IdlePeriod(server=s, st=float(s), et=50.0, uid=s) for s in range(7)]
        counter = OpCounter()
        tree = TwoDimTree(counter)
        tree.bulk_load(periods)
        walks = {
            -1.0: (0, [], 4),  # root, [0:4), [0:2), leaf [0:1) — all start after sr
            0.0: (1, [(0, 1)], 4),
            3.0: (4, [(0, 4)], 4),  # then [4:7) -> [4:6) -> [4:5), none marked
            4.5: (5, [(0, 4), (4, 5)], 4),
            9.0: (7, [(0, 4), (4, 6), (6, 7)], 3),
        }
        for sr, (count, marks, visits) in walks.items():
            counter.reset()
            assert tree.phase1(sr) == (count, marks), sr
            assert counter.get("node_visit") == visits, sr

    def test_secondaries_exist_only_for_bisected_nodes_until_the_next_update(self):
        periods = [IdlePeriod(server=s, st=float(s), et=60.0 - s, uid=s) for s in range(7)]
        counter = OpCounter()
        tree = TwoDimTree(counter)
        tree.bulk_load(periods)
        _, marks = tree.phase1(4.5)
        assert tree._secs == {}  # Phase 1 alone materialises nothing
        counter.reset()
        assert tree.phase2(marks, 57.0, 2) == [periods[3], periods[2]]
        assert sorted(tree._secs) == [(0, 4), (4, 5)]
        assert tree._secs[(0, 4)] == sorted((p.et, p.uid) for p in periods[:4])
        # 4 keys -> 3 probe steps, 1 key -> 1
        assert counter.get("secondary_probe") == (4).bit_length() + (1).bit_length()
        assert audit_tree(tree) == []
        # too few feasible: None unless partial
        assert tree.phase2(marks, 59.5, 2) is None
        assert tree.phase2(marks, 59.5, 2, partial=True) == [periods[0]]
        assert tree.phase2(marks, 58.5, math.inf) == [periods[1], periods[0]]
        tree.apply_batch(periods[:1], [])
        assert tree._secs == {}


class TestBulkPathMissingRemoval:
    def test_failed_batch_leaves_the_tree_untouched(self):
        periods = [IdlePeriod(server=s, st=float(s), et=50.0 + s, uid=s) for s in range(16)]
        ghost = IdlePeriod(server=99, st=3.5, et=60.0, uid=99)
        incoming = [IdlePeriod(server=s, st=20.0 + s, et=90.0, uid=16 + s) for s in range(4)]
        tree = TwoDimTree()
        tree.bulk_load(periods)
        _, marks = tree.phase1(7.0)
        tree.phase2(marks, 0.0, math.inf)
        secs_before = dict(tree._secs)
        leaves_before = list(tree._leaves)
        # the ghost must be noticed before the two real removals are dropped
        with pytest.raises(KeyError):
            tree.apply_batch([periods[2], ghost, periods[5]], incoming)
        assert (tree._leaves, len(tree), tree.max_end()) == (leaves_before, 16, 65.0)
        assert tree._secs == secs_before and secs_before
        assert audit_tree(tree) == []
        # a doubled removal is refused the same way
        with pytest.raises(KeyError):
            tree.apply_batch([periods[2], periods[2]], [])
        assert tree._leaves == leaves_before
        # and the tree is still fully usable
        tree.apply_batch([periods[2], periods[5]], incoming)
        survivors = [p for p in periods if p not in (periods[2], periods[5])] + incoming
        assert tree.max_end() == 90.0
        assert sorted(p.uid for p in tree.periods()) == sorted(p.uid for p in survivors)
        assert audit_tree(tree) == []


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
