"""The 2-dimensional availability tree of Section 4.1.

One :class:`TwoDimTree` exists per time slot; it stores every idle period
that overlaps the slot.  The *primary* dimension is a leaf-oriented
balanced binary search tree keyed by idle-period **starting time**
(ascending; the paper stores descending — a mirror image with identical
semantics).  Every node additionally carries the *secondary* dimension: an
index over the same set of idle periods ordered by **ending time**.

Both dimensions are *implicit* trees over sorted arrays.  The primary is
one list of leaves sorted by ``(st, uid)``: the node over ``leaves[lo:hi]``
splits at ``mid = (lo + hi + 1) // 2``, so "child", "subtree size" and
"split key" are index arithmetic and the tree is perfectly balanced by
construction — no node objects, links, size fields or balance factor to
keep right.  A node *is* its ``(lo, hi)`` pair, and so is a Phase-1 mark.
A node's secondary is the sorted ``(et, uid)`` array of its leaves, on
which the Phase-2 median-split search is literally a binary search
(``bisect``); it is materialised when a search first bisects that node
and dropped by the next update.  The paper's search bounds hold: Phase 1
visits ``O(log N)`` nodes and marks ``O(log N)`` subtrees, Phase 2 costs
``O((log N)^2)`` once the marked secondaries exist.  An update is one
array pass — drop, append, re-sort — per *read* slot (below) where the
paper pays ``O(log^2 N)`` per period per slot; for the few dozen periods
a slot holds that pass is the cheaper of the two (DESIGN.md §13 has the
measured traffic and the tree size at which a dynamic tree would win
again).

**Writes are noted, trees are built on read.**  The paper's update rule
registers a remnant in the tree of every slot it overlaps, but most of
those trees are never searched before the remnant is carved again or the
slot rolls out of the horizon.  So ``insert``/``remove`` record the
period in two per-tree dicts — O(1), with the ``KeyError`` for an absent
period still raised at the call — and every read (``phase1``,
``max_end``, ``len``, ``in``, ``periods`` and what is built on them)
first applies the buffer as one :meth:`TwoDimTree.apply_batch`.  An
insert and a remove of the same period that meet in the buffer cancel
and never reach the leaves.  Nothing observable depends on *when* the
leaves are updated: Phase 2 is a pure function of stored content, and
elementary operations are counted when they happen, at the flush.
DESIGN.md §11 has the measurements behind this.

The reference this is lock-stepped against is the flat-list
:class:`repro.verify.oracle.ReferenceTree` (linear scans and ``sorted``;
``tests/property/test_array_equivalence.py``).

Invariants (exercised by ``validate()`` and the property tests):

* leaves appear in strictly ascending ``(st, uid)`` order and each equals
  the period the uid map holds for it;
* the cached latest ending time agrees with the leaves;
* every materialised secondary index holds exactly the ``(et, uid)`` keys
  of the leaf range it names, in ascending order;
* the write buffer names only what it may (removals of stored periods,
  inserts of unstored ones).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from heapq import heapify, heappop, heapreplace
from typing import Iterator, Sequence, TypeVar

from .opcount import NULL_COUNTER, OpCounter
from .types import IdlePeriod

__all__ = ["TwoDimTree", "backend_info", "merge_earliest"]


def backend_info() -> dict[str, object]:
    """The slot-tree implementation this process runs — always the one.

    Benchmarks embed this next to their checksums; it is a constant
    since the package has a single, interpreted build (DESIGN.md §17).
    """
    return {"backend": "pure-python", "compiled": False}


_Item = TypeVar("_Item", bound=tuple)  # type: ignore[type-arg]


def merge_earliest(
    runs: Sequence[tuple[Sequence[_Item], int]], need: int
) -> list[_Item]:
    """Merge ascending ``runs`` and return the smallest ``need`` items.

    Parameters
    ----------
    runs:
        ``(keys, start)`` pairs: ``keys`` is sorted ascending and only
        ``keys[start:]`` participates.  Runs whose suffix is empty are
        skipped, so callers may pass them unfiltered.
    need:
        Maximum number of items to take; the result is shorter only when
        the runs are collectively shorter.

    The items' relative order is total across runs (the callers' keys
    carry a unique ``(et, uid)`` prefix), so the output is independent of
    run partitioning: however the tree's shape splits the stored periods
    across marked subtrees, merging them equals slicing the one global
    ``(et, uid)`` order.  Cost is ``O(need · log k)`` for ``k`` live
    runs, with a zero-copy slice fast path when only one run is live.
    """
    if need <= 0:
        return []
    live: list[tuple[Sequence[_Item], int]] = [
        (keys, idx) for keys, idx in runs if idx < len(keys)
    ]
    if not live:
        return []
    if len(live) == 1:
        keys, idx = live[0]
        return list(keys[idx : idx + need])
    heap: list[tuple[_Item, int, int]] = [
        (keys[idx], run, idx) for run, (keys, idx) in enumerate(live)
    ]
    heapify(heap)
    out: list[_Item] = []
    out_append = out.append
    taken = 0
    while heap and taken < need:
        item, run, idx = heap[0]
        out_append(item)
        taken += 1
        idx += 1
        keys = live[run][0]
        if idx < len(keys):
            heapreplace(heap, (keys[idx], run, idx))
        else:
            heappop(heap)
    return out


class TwoDimTree:
    """The per-slot 2-dimensional tree over idle periods, write-buffered.

    :meth:`insert` and :meth:`remove` only *note* the period; whoever
    reads the tree next pays for one fused :meth:`apply_batch` of
    everything noted since the last read.  A tree nobody reads before it
    is discarded never stores or counts anything.

    Parameters
    ----------
    counter:
        An :class:`~repro.core.opcount.OpCounter` receiving elementary
        operation counts; defaults to a do-nothing counter.
    """

    __slots__ = ("_counter", "_by_uid", "_ins", "_rem", "_leaves", "_max_et", "_secs")

    def __init__(self, counter: OpCounter = NULL_COUNTER) -> None:
        self._counter = counter
        #: uid -> period for everything stored; resolves secondary keys
        self._by_uid: dict[int, IdlePeriod] = {}
        #: the write buffer, by uid: periods noted for removal (always
        #: stored) and for insertion (never stored)
        self._ins: dict[int, IdlePeriod] = {}
        self._rem: dict[int, IdlePeriod] = {}
        #: stored periods as ``(st, uid, et)``, ascending — ``(st, uid)``
        #: is unique, so the ordering never consults ``et``
        self._leaves: list[tuple[float, int, float]] = []
        #: latest ending time of any leaf; ``-inf`` when empty
        self._max_et = -math.inf
        #: node ``(lo, hi)`` -> its secondary index, for the nodes a
        #: search has bisected since the last update
        self._secs: dict[tuple[int, int], list[tuple[float, int]]] = {}

    # ------------------------------------------------------------------
    # basic protocol (every read applies the write buffer first)
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        if self._ins or self._rem:
            self._flush()
        return len(self._leaves)

    def __contains__(self, period: IdlePeriod) -> bool:
        if self._ins or self._rem:
            self._flush()
        return period.uid in self._by_uid

    def max_end(self) -> float:
        """Latest ending time of any stored period; ``-inf`` when empty.

        O(1) on a tree with nothing buffered: the maximum is cached at
        each update.
        """
        if self._ins or self._rem:
            self._flush()
        return self._max_et

    def periods(self) -> Iterator[IdlePeriod]:
        """All stored idle periods in ascending start-time order."""
        if self._ins or self._rem:
            self._flush()
        uids = [uid for _st, uid, _et in self._leaves]
        by_uid = self._by_uid
        return (by_uid[uid] for uid in uids)

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------

    def insert(self, period: IdlePeriod) -> None:
        """Note an idle period for insertion — O(1).

        The tree work is done by the next read's flush.
        """
        self._ins[period.uid] = period

    def insert_many(self, periods: dict[int, IdlePeriod]) -> None:
        """Note several idle periods for insertion — O(1) per period.

        ``periods`` maps each period's uid to the period; the same as
        :meth:`insert` of each value in turn, as one ``dict.update``.
        The calendar hands every slot a request's left remnants share
        the one dict (DESIGN.md §21).
        """
        self._ins.update(periods)

    def remove(self, period: IdlePeriod) -> None:
        """Note an idle period for removal — O(1).

        Raises ``KeyError`` *now*, not at the flush, when the period is
        neither stored nor buffered or its removal is already buffered.
        Removing a period whose insertion is still buffered cancels the
        pair: the leaves never see either.
        """
        uid = period.uid
        if self._ins.pop(uid, None) is None:
            if uid not in self._by_uid or uid in self._rem:
                raise KeyError(f"idle period uid={uid} not in tree")
            self._rem[uid] = period

    def _flush(self) -> None:
        """Apply the write buffer as one fused batch, removals first."""
        removals = list(self._rem.values())
        inserts = list(self._ins.values())
        self._rem.clear()
        self._ins.clear()
        self.apply_batch(removals, inserts)

    def apply_batch(self, removals: list[IdlePeriod], inserts: list[IdlePeriod]) -> None:
        """Apply removals, then insertions, to the stored tree in one pass.

        The one place slot-tree update work happens (:meth:`bulk_load`
        shares its splice on an empty tree): each read hands the write
        buffer here as one call.  Called directly, anything still
        buffered is applied first.  Raises ``KeyError`` when a removal is
        not stored or is listed twice — the batch is checked before it is
        applied, so the tree, its uid map and the counter are then
        exactly what they were.
        """
        if self._ins or self._rem:
            self._flush()
        self._splice(removals, inserts)
        by_uid = self._by_uid
        for p in removals:
            del by_uid[p.uid]
        for p in inserts:
            by_uid[p.uid] = p
        self._counter.add_batch(len(inserts), len(removals), len(self._leaves))

    def _splice(self, removals: list[IdlePeriod], inserts: list[IdlePeriod]) -> None:
        """Drop the removed uids, append the inserts, re-sort — one pass,
        near-linear because the survivors are already in order — and
        refresh the cached maximum; secondaries are dropped."""
        kept = self._leaves
        if removals:
            drop = {p.uid for p in removals}
            kept = [leaf for leaf in kept if leaf[1] not in drop]
            if len(drop) != len(removals) or len(kept) != len(self._leaves) - len(drop):
                raise KeyError("batch removal of an idle period not in tree")
        if inserts:
            # in place when nothing was dropped: no failure can follow
            kept += [(p.st, p.uid, p.et) for p in inserts]
            kept.sort()
        self._leaves = kept
        self._max_et = max([et for _st, _uid, et in kept]) if kept else -math.inf
        self._secs = {}

    def bulk_load(self, periods: list[IdlePeriod]) -> None:
        """Replace the tree contents with ``periods`` in O(k log k), eagerly.

        Drops anything buffered along with the stored contents.  The
        calendar never calls it (its trees fill through write notes); it
        is the one-shot build for callers that hold a whole slot's
        periods at once.
        """
        self._ins.clear()
        self._rem.clear()
        self._by_uid = {p.uid: p for p in periods}
        self._leaves = []
        self._splice([], periods)
        if periods:
            self._counter.add("rebuild", len(periods))

    # ------------------------------------------------------------------
    # searches (the two phases of Section 4.2)
    # ------------------------------------------------------------------

    def phase1(self, sr: float) -> tuple[int, list[tuple[int, int]]]:
        """Locate every *candidate* idle period (``st <= sr``).

        Walks the implicit tree from ``(0, count)`` and returns the
        candidate count and the marked subtree roots (each a ``(lo, hi)``
        leaf range) in marking order (ascending start ranges); together
        they tile the ``st <= sr`` prefix.  Phase 2 merges their
        secondary indexes into one canonical feasibility order, so the
        partition produced here is an implementation detail — only the
        union of the marked leaves matters.  Marks are only valid until
        the next read of this tree that follows an update (updates are
        buffered; :meth:`phase2` itself never flushes).
        """
        if self._ins or self._rem:
            self._flush()
        leaves = self._leaves
        marks: list[tuple[int, int]] = []
        visits = 0
        lo = 0
        hi = len(leaves)
        while lo < hi:
            visits += 1
            mid = (lo + hi + 1) // 2
            if leaves[mid - 1][0] <= sr:
                # every leaf of the left child starts at or before sr
                marks.append((lo, mid))
                lo = mid
            elif mid == hi:
                break  # a single leaf, and it starts after sr
            else:
                hi = mid
        self._counter.add_search(visits, len(marks), 0, 0)
        # the marks tile the prefix [0, lo)
        return lo, marks

    def phase2(
        self,
        marks: list[tuple[int, int]],
        er: float,
        need: int | float,
        partial: bool = False,
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
        :func:`merge_earliest`, whose output does not depend on how the
        periods are partitioned into runs.  The bound is unchanged —
        ``O(log N)`` bisects of ``O(log N)`` marks plus
        ``O(need · log log N)`` heap pops.

        Returns the chosen periods, or ``None`` when fewer than ``need``
        are feasible — unless ``partial`` is set, in which case whatever
        was found is returned (the calendar tops the result up from its
        tail index).  ``need`` may be ``math.inf`` to retrieve every
        feasible period (range searches), in ascending ``(et, uid)``
        order.
        """
        bound = (er, -1)
        probes = 0
        avail = 0
        runs: list[tuple[list[tuple[float, int]], int]] = []
        secs = self._secs
        for mark in marks:
            ks = secs.get(mark)
            if ks is None:
                # built once per node per update, then only bisected
                lo, hi = mark
                ks = sorted(  # repro: noqa: RA002
                    [(et, uid) for _st, uid, et in self._leaves[lo:hi]]
                )
                secs[mark] = ks
            idx = bisect_left(ks, bound)
            probes += len(ks).bit_length()
            if idx < len(ks):
                avail += len(ks) - idx
                runs.append((ks, idx))
        take = avail if need == math.inf else int(need)
        if avail < take and not partial:
            self._counter.add_search(0, 0, probes, 0)
            return None
        by_uid = self._by_uid
        out = [by_uid[uid] for _et, uid in merge_earliest(runs, take)]
        self._counter.add_search(0, 0, probes, len(out))
        return out

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
    # verification (test support)
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check every structural invariant; raises ``AssertionError`` on violation.

        Delegates to :func:`repro.analysis.audit.audit_tree` — the full
        machine-checked invariant list (cached maximum, leaf
        and secondary ordering, uid-map bijection, primary/secondary
        leaf-set equality, write buffer) lives there, with one stable
        check ID per invariant.  The raised
        :class:`~repro.analysis.audit.AuditError` is an
        ``AssertionError`` subclass, preserving this method's contract.
        """
        from ..analysis.audit import AuditError, audit_tree

        # test support for the tree as its readers see it; the audits
        # themselves never flush (see audit_calendar)
        if self._ins or self._rem:
            self._flush()
        findings = audit_tree(self)
        if findings:
            raise AuditError(findings)
