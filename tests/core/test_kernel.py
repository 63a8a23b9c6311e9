"""Unit tests for the storage kernel (``repro.core._kernel``).

The kernel is a sorted leaf array read as the balanced tree it implies:
a batch must be settled by one sort however its keys arrive, Phase 1 must
walk the ``mid = (lo + hi + 1) // 2`` tree, a secondary index must exist
only for a node some search bisected since the last update, and a batch
that names a period the tree does not hold must leave the tree as it
found it.
"""

import math

from repro.analysis.audit import audit_tree
from repro.core._kernel import TreeKernel
from repro.core.slot_tree import TwoDimTree
from repro.core.types import IdlePeriod


def _wrap(kernel: TreeKernel, periods: list[IdlePeriod]) -> TwoDimTree:
    """A wrapper around ``kernel`` so the structural audit can read it."""
    tree = TwoDimTree()
    tree._kernel = kernel
    tree._by_uid = {p.uid: p for p in periods}
    return tree


def _items(periods: list[IdlePeriod]) -> list[tuple[float, float, int]]:
    return [(p.st, p.et, p.uid) for p in periods]


class TestEmptyTreeBulkPath:
    def test_same_start_ascending_uid_batch_is_built_not_walked(self):
        # what a wide reservation leaves in one slot: equal starts, ever
        # larger uids — the worst case for one-by-one insertion
        periods = [IdlePeriod(server=s, st=100.0, et=200.0 + s, uid=s) for s in range(64)]
        kernel = TreeKernel()
        assert kernel.apply_batch([], _items(periods))
        assert kernel.count == 64 and kernel.max_et == 263.0
        assert audit_tree(_wrap(kernel, periods)) == []
        assert kernel.uids_inorder() == [p.uid for p in periods]
        # the implied tree is perfectly balanced: a full-prefix walk takes
        # one step per level
        count, marks = kernel.phase1(100.0)
        assert count == 64
        assert kernel.last_visits == len(marks) == math.ceil(math.log2(64)) + 1

    def test_bulk_load_is_a_batch_on_an_empty_tree(self):
        old = [IdlePeriod(server=s, st=float(s), et=9.0, uid=s) for s in range(5)]
        new = [IdlePeriod(server=s, st=5.0 - s, et=20.0 + s, uid=5 + s) for s in range(3)]
        loaded, batched = TreeKernel(), TreeKernel()
        loaded.bulk_load(_items(old))
        loaded.bulk_load(_items(new))
        assert batched.apply_batch([], _items(new))
        assert loaded.leaves == batched.leaves
        assert (loaded.count, loaded.max_et) == (batched.count, batched.max_et) == (3, 22.0)
        loaded.bulk_load([])
        assert (loaded.leaves, loaded.count, loaded.max_et) == ([], 0, -math.inf)

    def test_removal_from_an_empty_tree_fails(self):
        ghosts = [IdlePeriod(server=s, st=1.0, et=2.0, uid=s) for s in range(3)]
        for removals, inserts in ((ghosts[:1], []), (ghosts[:1], ghosts[1:])):
            kernel = TreeKernel()
            assert not kernel.apply_batch(_items(removals), _items(inserts))
            assert kernel.count == 0 and kernel.leaves == []


class TestImplicitTree:
    def test_phase1_walks_the_midpoint_tree(self):
        # seven leaves: root splits 4 | 3, then 2 | 2 and 2 | 1
        periods = [IdlePeriod(server=s, st=float(s), et=50.0, uid=s) for s in range(7)]
        kernel = TreeKernel()
        kernel.bulk_load(_items(periods))
        walks = {
            -1.0: (0, [], 4),  # root, [0:4), [0:2), leaf [0:1) — all start after sr
            0.0: (1, [(0, 1)], 4),
            3.0: (4, [(0, 4)], 4),  # then [4:7) -> [4:6) -> [4:5), none marked
            4.5: (5, [(0, 4), (4, 5)], 4),
            9.0: (7, [(0, 4), (4, 6), (6, 7)], 3),
        }
        for sr, (count, marks, visits) in walks.items():
            assert kernel.phase1(sr) == (count, marks), sr
            assert kernel.last_visits == visits, sr

    def test_secondaries_exist_only_for_bisected_nodes_until_the_next_update(self):
        periods = [IdlePeriod(server=s, st=float(s), et=60.0 - s, uid=s) for s in range(7)]
        kernel = TreeKernel()
        kernel.bulk_load(_items(periods))
        _, marks = kernel.phase1(4.5)
        assert kernel.secs == {}  # Phase 1 alone materialises nothing
        chosen = kernel.phase2(marks, 57.0, 2, False)
        assert chosen == [(57.0, periods[3].uid), (58.0, periods[2].uid)]
        assert sorted(kernel.secs) == [(0, 4), (4, 5)]
        assert kernel.secs[(0, 4)] == sorted((p.et, p.uid) for p in periods[:4])
        # 4 keys -> 3 probe steps, 1 key -> 1
        assert kernel.last_probes == (4).bit_length() + (1).bit_length()
        assert audit_tree(_wrap(kernel, periods)) == []
        # too few feasible: None unless partial
        assert kernel.phase2(marks, 59.5, 2, False) is None
        assert kernel.phase2(marks, 59.5, 2, True) == [(60.0, periods[0].uid)]
        assert kernel.phase2(marks, 58.5, -1, False) == [
            (59.0, periods[1].uid),
            (60.0, periods[0].uid),
        ]
        assert kernel.apply_batch(_items(periods[:1]), [])
        assert kernel.secs == {}


class TestBulkPathMissingRemoval:
    def test_failed_batch_leaves_the_tree_untouched(self):
        periods = [IdlePeriod(server=s, st=float(s), et=50.0 + s, uid=s) for s in range(16)]
        ghost = IdlePeriod(server=99, st=3.5, et=60.0, uid=99)
        incoming = [IdlePeriod(server=s, st=20.0 + s, et=90.0, uid=16 + s) for s in range(4)]
        kernel = TreeKernel()
        kernel.bulk_load(_items(periods))
        _, marks = kernel.phase1(7.0)
        kernel.phase2(marks, 0.0, -1, False)
        secs_before = dict(kernel.secs)
        leaves_before = list(kernel.leaves)
        # the ghost must be noticed before the two real removals are dropped
        removals = [periods[2], ghost, periods[5]]
        assert not kernel.apply_batch(_items(removals), _items(incoming))
        assert (kernel.leaves, kernel.count, kernel.max_et) == (leaves_before, 16, 65.0)
        assert kernel.secs == secs_before and secs_before
        assert audit_tree(_wrap(kernel, periods)) == []
        # a doubled removal is refused the same way
        assert not kernel.apply_batch(_items([periods[2], periods[2]]), [])
        assert kernel.leaves == leaves_before
        # and the tree is still fully usable
        assert kernel.apply_batch(_items([periods[2], periods[5]]), _items(incoming))
        survivors = [p for p in periods if p not in (periods[2], periods[5])] + incoming
        assert kernel.max_et == 90.0
        assert audit_tree(_wrap(kernel, survivors)) == []
