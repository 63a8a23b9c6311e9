"""The node-backed reference form of the Section 4.1 availability tree.

This module preserves the original heap-allocated ``_Node`` implementation
of :class:`TwoDimTree` after the production tree moved to array-backed
storage (:mod:`repro.core.slot_tree` wrapping
:mod:`repro.core._kernel`).  It exists as the *executable specification*:
the hypothesis suite in ``tests/property/test_array_equivalence.py`` runs
identical operation streams through both implementations and requires
byte-identical answers from insert/remove/phase1/phase2/range_search/
bulk_load.  It is not used on any production path and is deliberately
left uncompiled.

One :class:`TwoDimTree` exists per time slot; it stores every idle period
that overlaps the slot.  The *primary* dimension is a leaf-oriented,
weight-balanced binary search tree keyed by idle-period **starting time**
(ascending; the paper stores descending — a mirror image with identical
semantics).  Every node additionally carries the *secondary* dimension: an
index over the same set of idle periods ordered by **ending time**.

The paper describes the secondary structures as binary search trees.  Here
each one is an *implicit* balanced BST backed by a sorted array: the
Phase-2 median-split search is literally a binary search (``bisect``),
"subtree size" is index arithmetic, and single-element updates are C-speed
``memmove`` — strictly faster than pointer-chasing for every set that fits
in one slot tree (at most the number of servers, ``N``).  The primary tree
uses partial rebuilding (the canonical dynamic range-tree construction) so
the paper's bounds hold: Phase 1 visits ``O(log N)`` nodes and marks
``O(log N)`` subtrees, Phase 2 costs ``O((log N)^2)``, and updates are
amortized ``O(log^2 N)`` tree work plus the array shifts.

Invariants (exercised by ``validate()`` and the property tests):

* leaves appear in ascending ``(st, uid)`` order;
* every internal node's key equals or exceeds every key in its left
  subtree and is strictly below every key in its right subtree;
* every node's secondary index holds exactly the ``(et, uid)`` keys of
  the leaves below it, in ascending order (the periods themselves are
  resolved through a per-tree uid map);
* every internal node is α-weight-balanced (see ``ALPHA``).
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort_left
from typing import Iterator

from .merge import merge_earliest
from .opcount import NULL_COUNTER, OpCounter
from .types import IdlePeriod

__all__ = ["TwoDimTree", "ALPHA"]

#: Weight-balance factor: a node with ``size(child) > ALPHA * size(node)``
#: triggers a partial rebuild of the highest unbalanced subtree.  0.8
#: trades slightly deeper trees (depth <= log_{1.25} n ~= 3.1 log2 n) for
#: far fewer rebuilds under the monotone insertion patterns the calendar
#: produces (remnants carry ever-increasing uids).
ALPHA = 0.8

#: Sentinel uid used to turn a scalar start-time bound into a search key
#: that compares *after* every real ``(st, uid)`` key with the same st.
_UID_HIGH = math.inf


class _Node:
    """A primary-tree node; leaves carry an idle period, internal nodes a split key.

    ``sec_keys`` is the secondary dimension: the ``(et, uid)`` keys of
    every idle period below the node, ascending.  The periods themselves
    are resolved through the owning tree's uid map — storing keys only
    halves the per-ancestor update work and the rebuild merge volume.
    """

    __slots__ = ("key", "size", "left", "right", "parent", "period", "sec_keys")

    def __init__(self) -> None:
        self.key: tuple[float, float] = (0.0, 0.0)
        self.size = 1
        self.left: _Node | None = None
        self.right: _Node | None = None
        self.parent: _Node | None = None
        self.period: IdlePeriod | None = None
        self.sec_keys: list[tuple[float, int]] = []

    @property
    def is_leaf(self) -> bool:
        return self.period is not None

    @staticmethod
    def leaf(period: IdlePeriod) -> "_Node":
        node = _Node()
        node.key = (period.st, period.uid)
        node.period = period
        node.sec_keys = [(period.et, period.uid)]
        return node


def _collect(node: _Node) -> tuple[list[_Node], list[_Node]]:
    """Leaves below ``node`` in ascending key order, plus the internal
    nodes of the subtree (recycled by rebuilds to avoid allocation)."""
    leaves: list[_Node] = []
    internals: list[_Node] = []
    leaves_append = leaves.append
    internals_append = internals.append
    stack = [node]
    stack_append = stack.append
    stack_pop = stack.pop
    while stack:
        cur = stack_pop()
        if cur.period is not None:
            leaves_append(cur)
        else:
            internals_append(cur)
            # push right first so left is processed first
            stack_append(cur.right)  # type: ignore[arg-type]
            stack_append(cur.left)  # type: ignore[arg-type]
    return leaves, internals


class TwoDimTree:
    """The per-slot 2-dimensional tree over idle periods.

    Parameters
    ----------
    counter:
        An :class:`~repro.core.opcount.OpCounter` receiving elementary
        operation counts; defaults to a do-nothing counter.
    """

    __slots__ = ("_root", "_counter", "_by_uid")

    def __init__(self, counter: OpCounter = NULL_COUNTER) -> None:
        self._root: _Node | None = None
        self._counter = counter
        #: uid -> period for everything stored; resolves secondary keys
        self._by_uid: dict[int, IdlePeriod] = {}

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._root.size if self._root is not None else 0

    def __contains__(self, period: IdlePeriod) -> bool:
        leaf, visits = self._find_leaf(period)
        if visits:
            self._counter.add("node_visit", visits)
        return leaf is not None

    def periods(self) -> Iterator[IdlePeriod]:
        """All stored idle periods in ascending start-time order."""
        if self._root is None:
            return iter(())
        return (leaf.period for leaf in _collect(self._root)[0])  # type: ignore[misc]

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------

    def insert(self, period: IdlePeriod) -> None:
        """Insert an idle period (O(log^2 N) amortized)."""
        new_leaf = _Node()
        key = (period.st, period.uid)
        sec_key = (period.et, period.uid)
        new_leaf.key = key
        new_leaf.period = period
        new_leaf.sec_keys = [sec_key]
        self._by_uid[period.uid] = period
        if self._root is None:
            self._root = new_leaf
            self._counter.add_insert(0, 0)
            return
        # single fused descent: push the size increment and the secondary
        # insertion into every node passed, and spot the highest
        # α-unbalanced ancestor on the way down (the descent child's final
        # size is its current size + 1 — for the split leaf too, which
        # becomes an internal node of size 2 — so the post-update balance
        # test can run before the update completes)
        node = self._root
        visits = 0
        probes = 0
        unbal: _Node | None = None
        while node.period is None:
            visits += 1
            size = node.size + 1
            node.size = size
            insort_left(node.sec_keys, sec_key)
            # len(sec_keys) == subtree size on every node, so the probe
            # cost needs no len() call
            probes += size.bit_length()
            left = node.left
            child = left if key <= node.key else node.right
            if unbal is None:
                limit = ALPHA * size
                other = node.right if child is left else left
                if child.size + 1 > limit or other.size > limit:  # type: ignore[union-attr]
                    unbal = node
            node = child  # type: ignore[assignment]
        # split the leaf into an internal node with two leaf children
        old_leaf = node
        internal = _Node()
        if key < old_leaf.key:
            internal.left, internal.right = new_leaf, old_leaf
            internal.key = key
        else:
            internal.left, internal.right = old_leaf, new_leaf
            internal.key = old_leaf.key
        internal.size = 2
        old_sec = old_leaf.sec_keys[0]
        if sec_key < old_sec:
            internal.sec_keys = [sec_key, old_sec]
        else:
            internal.sec_keys = [old_sec, sec_key]
        new_leaf.parent = internal
        old_parent = old_leaf.parent
        old_leaf.parent = internal
        internal.parent = old_parent
        if old_parent is None:
            self._root = internal
        elif old_parent.left is old_leaf:
            old_parent.left = internal
        else:
            old_parent.right = internal
        # batched accounting: totals are identical to counting each
        # elementary step as it happens, at a fraction of the call overhead
        self._counter.add_insert(visits, probes)
        if unbal is not None:
            self._rebuild(unbal)

    def bulk_load(self, periods: list[IdlePeriod]) -> None:
        """Replace the tree contents with ``periods`` in O(k log k).

        Used when a slot tree is (re-)initialized — at calendar start-up
        and at each horizon rollover — where item-by-item insertion would
        waste an O(log N) factor.
        """
        self._by_uid = {p.uid: p for p in periods}
        if not periods:
            self._root = None
            return
        leaves = [_Node.leaf(p) for p in sorted(periods, key=lambda p: (p.st, p.uid))]
        self._counter.add("rebuild", len(leaves))
        self._root = self._build(leaves, 0, len(leaves), [])
        self._root.parent = None

    def remove(self, period: IdlePeriod) -> None:
        """Remove an idle period; raises ``KeyError`` if absent."""
        leaf, visits = self._find_leaf(period)
        if leaf is None:
            self._counter.add_remove(visits, 0)
            raise KeyError(f"idle period uid={period.uid} not in tree")
        del self._by_uid[period.uid]
        parent = leaf.parent
        if parent is None:
            self._root = None
            self._counter.add_remove(visits, 0)
            return
        sibling = parent.right if parent.left is leaf else parent.left
        assert sibling is not None
        grand = parent.parent
        sibling.parent = grand
        if grand is None:
            self._root = sibling
        elif grand.left is parent:
            grand.left = sibling
        else:
            grand.right = sibling
        # single fused upward walk: sizes below the current ancestor are
        # already final, so the balance test runs in the same pass; the
        # *last* unbalanced node seen is the highest one, as the inlined
        # _rebalance wants
        sec_key = (period.et, period.uid)
        probes = 0
        unbal: _Node | None = None
        anc = grand
        while anc is not None:
            size = anc.size - 1
            anc.size = size
            keys = anc.sec_keys
            idx = bisect_left(keys, sec_key)
            del keys[idx]
            probes += (size + 1).bit_length()
            limit = ALPHA * size
            if anc.left.size > limit or anc.right.size > limit:  # type: ignore[union-attr]
                unbal = anc
            anc = anc.parent
        self._counter.add_remove(visits, probes)
        if unbal is not None:
            self._rebuild(unbal)

    # ------------------------------------------------------------------
    # searches (the two phases of Section 4.2)
    # ------------------------------------------------------------------

    def phase1(self, sr: float) -> tuple[int, list[_Node]]:
        """Locate every *candidate* idle period (``st <= sr``).

        Returns the candidate count and the marked subtree roots in
        marking order (ascending start ranges).  Phase 2 merges their
        secondary indexes into one canonical feasibility order, so the
        partition produced here is an implementation detail — only the
        union of the marked leaves matters.
        """
        bound = (sr, _UID_HIGH)
        count = 0
        marks: list[_Node] = []
        marks_append = marks.append
        visits = 0
        node = self._root
        while node is not None:
            visits += 1
            if node.period is not None:
                if node.key <= bound:
                    marks_append(node)
                    count += node.size
                break
            if node.key <= bound:
                # every leaf in the left subtree starts at or before sr
                left = node.left
                marks_append(left)  # type: ignore[arg-type]
                count += left.size  # type: ignore[union-attr]
                node = node.right
            else:
                node = node.left
        self._counter.add_search(visits, len(marks), 0, 0)
        return count, marks

    def phase2(
        self, marks: list[_Node], er: float, need: int | float, partial: bool = False
    ) -> list[IdlePeriod] | None:
        """Among the marked candidates, find ``need`` periods with ``et >= er``.

        Selection is *canonical*: the globally earliest-ending feasible
        periods win, ties broken by uid (a k-way merge over the marked
        subtrees' secondary indexes).  The paper instead walks the marked
        subtrees in reverse marking order and takes each subtree's
        earliest-ending members — but that partition is an artifact of
        the tree's internal shape, i.e. of operation *history* rather
        than content, so two trees holding identical periods can pick
        different (equally feasible) subsets.  The canonical merge makes
        the choice a pure function of the stored periods: a calendar
        rebuilt from a snapshot selects byte-identical servers, which is
        the reservation service's restart guarantee.  The merge itself is
        :func:`~repro.core.merge.merge_earliest`, whose output does not
        depend on how the periods are partitioned into runs.  The
        bound is unchanged — ``O(log N)`` bisects of ``O(log N)`` marks
        plus ``O(need · log log N)`` heap pops.

        Returns the chosen periods, or ``None`` when fewer than ``need``
        are feasible — unless ``partial`` is set, in which case whatever
        was found is returned (the calendar tops the result up from its
        tail index).  ``need`` may be ``math.inf`` to retrieve every
        feasible period (range searches), in ascending ``(et, uid)``
        order.
        """
        bound = (er, -1)
        by_uid = self._by_uid
        probes = 0
        avail = 0
        runs: list[tuple[list[tuple[float, int]], int]] = []
        for node in marks:
            keys = node.sec_keys
            idx = bisect_left(keys, bound)
            probes += node.size.bit_length()
            if idx < len(keys):
                avail += len(keys) - idx
                runs.append((keys, idx))
        need_int = avail if need == math.inf else int(need)
        if avail < need_int and not partial:
            self._counter.add_search(0, 0, probes, 0)
            return None
        chosen = [by_uid[k[1]] for k in merge_earliest(runs, need_int)]
        self._counter.add_search(0, 0, probes, len(chosen))
        return chosen

    def find_feasible(self, sr: float, er: float, nr: int) -> list[IdlePeriod] | None:
        """Run both phases for a request occupying ``[sr, er)`` on ``nr`` servers."""
        count, marks = self.phase1(sr)
        if count < nr:
            return None
        return self.phase2(marks, er, nr)

    def count_candidates(self, sr: float) -> int:
        """Number of stored periods with ``st <= sr`` (Phase 1 only)."""
        return self.phase1(sr)[0]

    def range_search(self, ta: float, tb: float) -> list[IdlePeriod]:
        """Every stored idle period covering the whole window ``[ta, tb)``."""
        _, marks = self.phase1(ta)
        found = self.phase2(marks, tb, math.inf)
        return found if found is not None else []

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _find_leaf(self, period: IdlePeriod) -> tuple[_Node | None, int]:
        """Locate the leaf holding ``period``; returns ``(leaf, visits)``
        so the caller can fold the visit count into its own accounting."""
        key = (period.st, period.uid)
        visits = 0
        node = self._root
        while node is not None and node.period is None:
            visits += 1
            node = node.left if key <= node.key else node.right
        if node is not None and node.period.uid == period.uid:  # type: ignore[union-attr]
            return node, visits
        return None, visits

    def _rebuild(self, node: _Node) -> None:
        # capture the attachment point first: `node` itself enters the
        # recycling pool and may be rewired while the subtree is rebuilt
        parent = node.parent
        was_left = parent is not None and parent.left is node
        # the rebuilt root covers the same leaf set, so its merged
        # secondary array is the old root's, verbatim — _build never
        # mutates a recycled node's old array, it only rebinds
        top_keys = node.sec_keys
        leaves, pool = _collect(node)
        self._counter.add("rebuild", len(leaves))
        fresh = self._build(leaves, 0, len(leaves), pool, top_keys)
        fresh.parent = parent
        if parent is None:
            self._root = fresh
        elif was_left:
            parent.left = fresh
        else:
            parent.right = fresh

    def _build(
        self,
        leaves: list[_Node],
        lo: int,
        hi: int,
        pool: list[_Node],
        keys: list[tuple[float, int]] | None = None,
    ) -> _Node:
        """Build a perfectly balanced subtree over ``leaves[lo:hi]`` (already
        ordered), recycling internal nodes from ``pool`` when available.
        ``keys``, when given, is the node's known merged secondary array
        (the largest merge of a rebuild, skipped rather than recomputed)."""
        if hi - lo == 1:
            leaf = leaves[lo]
            leaf.left = leaf.right = None
            return leaf
        mid = (lo + hi + 1) // 2  # left gets the extra leaf; key = max of left
        node = pool.pop() if pool else _Node()
        node.period = None
        # expand single-leaf children inline: over half of all recursive
        # calls would otherwise be the trivial base case above
        if mid - lo == 1:
            left = leaves[lo]
            left.left = left.right = None
        else:
            left = self._build(leaves, lo, mid, pool)
        if hi - mid == 1:
            right = leaves[mid]
            right.left = right.right = None
        else:
            right = self._build(leaves, mid, hi, pool)
        node.left, node.right = left, right
        left.parent = right.parent = node
        node.key = leaves[mid - 1].key
        node.size = hi - lo
        if keys is not None:
            node.sec_keys = keys
            return node
        # merge the children's secondary arrays; when the runs do not
        # interleave (frequent: later-starting periods tend to end later)
        # a plain concatenation suffices, otherwise the concatenation is
        # two sorted runs, which timsort merges in linear time
        lk, rk = left.sec_keys, right.sec_keys
        if lk[-1] < rk[0]:
            node.sec_keys = lk + rk
        elif rk[-1] < lk[0]:
            node.sec_keys = rk + lk
        else:
            node.sec_keys = sorted(lk + rk)
        return node

    # ------------------------------------------------------------------
    # verification (test support)
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check every structural invariant; raises ``AssertionError`` on violation.

        The production (array-backed) tree delegates to the audit engine;
        this reference implementation keeps a self-contained inline check
        so it stays independent of the layout the audits read.
        """
        if self._root is None:
            assert not self._by_uid, "uid map retains entries of an empty tree"
            return
        assert self._root.parent is None

        def check(
            node: _Node,
        ) -> tuple[int, tuple[float, float], tuple[float, float], list[tuple[float, int]]]:
            """Returns (size, min_key, max_key, sorted sec keys) of the subtree."""
            if node.is_leaf:
                period = node.period
                assert period is not None and node.size == 1
                assert node.key == (period.st, period.uid)
                assert node.sec_keys == [(period.et, period.uid)]
                assert self._by_uid.get(period.uid) is period
                return 1, node.key, node.key, list(node.sec_keys)
            assert node.left is not None and node.right is not None
            assert node.left.parent is node and node.right.parent is node
            ls, lmin, lmax, lsec = check(node.left)
            rs, rmin, rmax, rsec = check(node.right)
            assert node.size == ls + rs, "size mismatch"
            assert lmax <= node.key < rmin, "split-key ordering violated"
            limit = ALPHA * node.size
            assert ls <= limit and rs <= limit, "weight balance violated"
            merged = sorted(lsec + rsec)
            assert node.sec_keys == merged, "secondary index out of sync"
            return node.size, lmin, rmax, merged

        check(self._root)
        assert len(self._by_uid) == self._root.size, "uid map out of sync"
