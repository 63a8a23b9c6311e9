"""Unit tests for the array kernel's batch paths (``repro.core._kernel``).

The write-buffered wrapper hands a slot's first flush to an *empty*
kernel: that batch must be built (sort + ``_build``), not walked in key
by key into a chain, and a batch that names a period the tree does not
hold must leave the tree as it found it.
"""

import math

from repro.analysis.audit import audit_tree
from repro.core._kernel import NIL, TreeKernel
from repro.core.slot_tree import TwoDimTree
from repro.core.types import IdlePeriod


def _depth(kernel: TreeKernel, node: int) -> int:
    if node == NIL or kernel.left[node] == NIL:
        return 1
    return 1 + max(_depth(kernel, kernel.left[node]), _depth(kernel, kernel.right[node]))


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
        periods = [IdlePeriod(server=s, st=100.0, et=200.0 + s) for s in range(64)]
        kernel = TreeKernel()
        assert kernel.apply_batch([], _items(periods))
        assert kernel.count == 64
        assert kernel.last_visits == 0 and kernel.last_probes == 0
        assert kernel.last_rebuilt == 64
        assert _depth(kernel, kernel.root) <= math.ceil(math.log2(64)) + 1
        assert audit_tree(_wrap(kernel, periods)) == []
        assert kernel.uids_inorder() == [p.uid for p in periods]

    def test_one_insert_batch_takes_the_single_node_fast_path(self):
        p = IdlePeriod(server=0, st=1.0, et=2.0)
        kernel = TreeKernel()
        assert kernel.apply_batch([], _items([p]))
        assert kernel.count == 1 and kernel.root != NIL
        assert kernel.left[kernel.root] == NIL  # the root is the leaf
        assert kernel.last_rebuilt == 0  # nothing was built
        assert len(kernel.keys) == 1  # and no internal node allocated
        assert audit_tree(_wrap(kernel, [p])) == []

    def test_removal_from_an_empty_tree_fails(self):
        ghosts = [IdlePeriod(server=s, st=1.0, et=2.0) for s in range(3)]
        for removals, inserts in ((ghosts[:1], []), (ghosts[:1], ghosts[1:])):
            kernel = TreeKernel()
            assert not kernel.apply_batch(_items(removals), _items(inserts))
            assert kernel.count == 0 and kernel.root == NIL


class TestBulkPathMissingRemoval:
    def test_failed_batch_leaves_the_tree_untouched(self):
        periods = [IdlePeriod(server=s, st=float(s), et=50.0 + s) for s in range(16)]
        ghost = IdlePeriod(server=99, st=3.5, et=60.0)
        incoming = [IdlePeriod(server=s, st=20.0 + s, et=90.0) for s in range(4)]
        kernel = TreeKernel()
        kernel.bulk_load(_items(periods))
        free_before = list(kernel.free)
        # large against the tree -> the in-place rebuild path; it must
        # notice the ghost before freeing the two real removals
        removals = [periods[2], ghost, periods[5]]
        assert not kernel.apply_batch(_items(removals), _items(incoming))
        assert kernel.count == 16
        assert kernel.free == free_before
        assert kernel.uids_inorder() == [p.uid for p in periods]
        assert audit_tree(_wrap(kernel, periods)) == []
        # a doubled removal is refused the same way
        assert not kernel.apply_batch(_items([periods[2], periods[2]]), [])
        assert audit_tree(_wrap(kernel, periods)) == []
        # and the tree is still fully usable
        assert kernel.apply_batch(_items([periods[2], periods[5]]), _items(incoming))
        survivors = [p for p in periods if p not in (periods[2], periods[5])] + incoming
        assert audit_tree(_wrap(kernel, survivors)) == []
