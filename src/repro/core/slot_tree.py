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
construction.  A node's secondary is the sorted ``(et, uid)`` array of its
leaves, on which the Phase-2 median-split search is literally a binary
search (``bisect``); it is materialised when a search first bisects that
node and dropped by the next update.  The paper's search bounds hold:
Phase 1 visits ``O(log N)`` nodes and marks ``O(log N)`` subtrees, Phase 2
costs ``O((log N)^2)`` once the marked secondaries exist.  An update is
one array pass — drop, append, re-sort — per *read* slot (below) where
the paper pays ``O(log^2 N)`` per period per slot; for the tree sizes a
slot holds that pass is the cheaper of the two (DESIGN.md §13).

The storage lives in :class:`repro.core._kernel.TreeKernel`, which mypyc
compiles to a C extension when the package is built with
``REPRO_MYPYC=1`` (see ``docs/algorithm.md``).  This module is the thin
uncompiled boundary around it: it owns the
uid → :class:`~repro.core.types.IdlePeriod` map (the kernel speaks
``(st, et, uid)`` primitives only), the **write buffer** (below), folds
the kernel's per-call accounting into the shared
:class:`~repro.core.opcount.OpCounter`, and — because it stays pure
python — remains monkeypatchable by the differ's bug injectors and the
audit engine's mutation wrappers.

**Writes are noted, trees are built on read.**  The paper's update rule
registers a remnant in the tree of every slot it overlaps, but most of
those trees are never searched before the remnant is carved again or the
slot rolls out of the horizon.  So ``insert``/``remove`` record the
period in two per-tree dicts — O(1), with the ``KeyError`` for an absent
period still raised at the call — and every read (``phase1``,
``max_end``, ``len``, ``in``, ``periods`` and what is built on them)
first applies the buffer as one :meth:`TwoDimTree.apply_batch`.  An
insert and a remove of the same period that meet in the buffer cancel
and never reach the kernel.  Nothing observable depends on *when* the
kernel is updated: Phase 2 is a pure function of stored content, and
elementary operations are counted when they happen, at the flush.
DESIGN.md §11 has the measurements behind this.

Backend selection happens once, at import:

* normally ``repro.core._kernel`` is imported the usual way, resolving to
  the compiled extension when one was built and the pure-python source
  otherwise;
* ``REPRO_PURE_CORE=1`` in the environment forces the pure-python source
  to be loaded even when the compiled extension exists — the
  checksum-gated fallback (CI asserts both backends produce bit-identical
  outcome checksums) and the escape hatch ``repro profile`` uses, since
  compiled frames are invisible to cProfile.

:func:`backend_info` reports which backend this process actually runs.

The reference this is lock-stepped against is the flat-list
:class:`repro.verify.oracle.ReferenceTree` (linear scans and ``sorted``;
``tests/property/test_array_equivalence.py``).

Invariants (exercised by ``validate()`` and the property tests):

* leaves appear in strictly ascending ``(st, uid)`` order and each equals
  the period the uid map holds for it;
* the cached leaf count and latest ending time agree with the leaves;
* every materialised secondary index holds exactly the ``(et, uid)`` keys
  of the leaf range it names, in ascending order;
* the write buffer names only what it may (removals of stored periods,
  inserts of unstored ones).
"""

from __future__ import annotations

import importlib.util
import math
import os
import sys
from types import ModuleType
from typing import Any, Iterator

from .opcount import NULL_COUNTER, OpCounter
from .types import IdlePeriod

__all__ = ["TwoDimTree", "backend_info"]


def _pure_kernel_module() -> ModuleType:
    """Load ``_kernel.py`` from source, bypassing any compiled extension.

    Registered under its own name (``repro.core._kernel_pure``) so the
    compiled module — if present — keeps its identity for anything that
    imported it directly.
    """
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.py")
    spec = importlib.util.spec_from_file_location("repro.core._kernel_pure", path)
    if spec is None or spec.loader is None:  # pragma: no cover - broken install
        raise ImportError(f"cannot load pure-python kernel from {path}")
    module = importlib.util.module_from_spec(spec)
    sys.modules["repro.core._kernel_pure"] = module
    spec.loader.exec_module(module)
    return module


#: True when ``REPRO_PURE_CORE`` demands the pure-python kernel.
_FORCE_PURE: bool = os.environ.get("REPRO_PURE_CORE", "").strip().lower() not in (
    "",
    "0",
    "off",
    "false",
    "no",
)

from . import _kernel as _kernel_mod  # noqa: E402 - needs _FORCE_PURE first

_impl: ModuleType = (
    _pure_kernel_module() if _FORCE_PURE and _kernel_mod.IS_COMPILED else _kernel_mod
)

_TreeKernel: Any = _impl.TreeKernel


def backend_info() -> dict[str, object]:
    """Which slot-tree kernel this process runs.

    ``backend`` is ``"compiled"`` (mypyc extension) or ``"pure-python"``;
    ``forced_pure`` records whether ``REPRO_PURE_CORE`` overrode a
    compiled build.  Benchmarks embed this next to their checksums so a
    recorded number always names the backend that produced it.
    """
    compiled = bool(_impl.IS_COMPILED)
    return {
        "backend": "compiled" if compiled else "pure-python",
        "compiled": compiled,
        "forced_pure": _FORCE_PURE,
        "module": str(getattr(_impl, "__file__", "<unknown>")),
    }


class TwoDimTree:
    """The per-slot 2-dimensional tree over idle periods, write-buffered.

    :meth:`insert` and :meth:`remove` only *note* the period; whoever
    reads the tree next pays for one fused :meth:`apply_batch` of
    everything noted since the last read.  A tree nobody reads before it
    is discarded never builds a kernel at all.

    Parameters
    ----------
    counter:
        An :class:`~repro.core.opcount.OpCounter` receiving elementary
        operation counts; defaults to a do-nothing counter.
    """

    __slots__ = ("_kernel", "_counter", "_by_uid", "_ins", "_rem")

    def __init__(self, counter: OpCounter = NULL_COUNTER) -> None:
        #: the stored tree; ``None`` until the first read
        self._kernel: Any = None
        self._counter = counter
        #: uid -> period for everything *stored* in the kernel; resolves
        #: secondary keys
        self._by_uid: dict[int, IdlePeriod] = {}
        #: the write buffer, by uid: periods noted for removal (always
        #: stored) and for insertion (never stored, unless the stored
        #: holder of that uid is noted for removal: snapshot restore
        #: re-uses uids, and a flush removes before it inserts)
        self._ins: dict[int, IdlePeriod] = {}
        self._rem: dict[int, IdlePeriod] = {}

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------

    def _stored(self) -> Any:
        """The kernel with the write buffer applied — every read's first step."""
        if self._ins or self._rem:
            self._flush()
        k = self._kernel
        if k is None:
            k = self._kernel = _TreeKernel()
        return k

    def __len__(self) -> int:
        return int(self._stored().count)

    def __contains__(self, period: IdlePeriod) -> bool:
        self._stored()
        return period.uid in self._by_uid

    def max_end(self) -> float:
        """Latest ending time of any stored period; ``-inf`` when empty.

        O(1) on a tree with nothing buffered: the kernel caches the
        maximum at each update.
        """
        # the retry ladder's per-rung read: _stored() inlined, and an
        # untouched slot answers without being given a kernel
        if self._ins or self._rem:
            self._flush()
        k = self._kernel
        if k is None:
            return -math.inf
        latest: float = k.max_et
        return latest

    def periods(self) -> Iterator[IdlePeriod]:
        """All stored idle periods in ascending start-time order."""
        uids = self._stored().uids_inorder()
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

    def remove(self, period: IdlePeriod) -> None:
        """Note an idle period for removal — O(1).

        Raises ``KeyError`` *now*, not at the flush, when the period is
        neither stored nor buffered or its removal is already buffered.
        Removing a period whose insertion is still buffered cancels the
        pair: the kernel never sees either.
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

        The one place slot-tree update work happens (:meth:`bulk_load` is
        the same kernel path on an empty tree): each read hands the write
        buffer here as one kernel call.  Called directly, anything still
        buffered is applied first.  Raises ``KeyError`` when a removal is
        not stored or is listed twice — the batch is checked before it is
        applied, so the tree, its uid map and the counter are then
        exactly what they were.
        """
        k = self._stored()
        ok = k.apply_batch(
            [(p.st, p.et, p.uid) for p in removals],
            [(p.st, p.et, p.uid) for p in inserts],
        )
        if not ok:
            raise KeyError("batch removal of an idle period not in tree")
        by_uid = self._by_uid
        for p in removals:
            del by_uid[p.uid]
        for p in inserts:
            by_uid[p.uid] = p
        self._counter.add_batch(len(inserts), len(removals), k.count)

    def bulk_load(self, periods: list[IdlePeriod]) -> None:
        """Replace the tree contents with ``periods`` in O(k log k), eagerly.

        Drops anything buffered along with the stored contents.  Used at
        calendar start-up in dense mode.
        """
        self._ins.clear()
        self._rem.clear()
        self._by_uid = {p.uid: p for p in periods}
        self._stored().bulk_load([(p.st, p.et, p.uid) for p in periods])
        if periods:
            self._counter.add("rebuild", len(periods))

    # ------------------------------------------------------------------
    # searches (the two phases of Section 4.2)
    # ------------------------------------------------------------------

    def phase1(self, sr: float) -> tuple[int, list[tuple[int, int]]]:
        """Locate every *candidate* idle period (``st <= sr``).

        Returns the candidate count and the marked subtree roots (kernel
        nodes, each a ``(lo, hi)`` leaf range) in marking order
        (ascending start ranges).  Phase 2
        merges their secondary indexes into one canonical feasibility
        order, so the partition produced here is an implementation detail
        — only the union of the marked leaves matters.  Marks are only
        valid until the next read of this tree that follows an update
        (updates are buffered; :meth:`phase2` itself never flushes).
        """
        k = self._stored()
        count, marks = k.phase1(sr)
        self._counter.add_search(k.last_visits, len(marks), 0, 0)
        return int(count), list(marks)

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
        k = self._kernel
        need_int = -1 if need == math.inf else int(need)
        chosen = k.phase2(marks, er, need_int, partial)
        if chosen is None:
            self._counter.add_search(0, 0, k.last_probes, 0)
            return None
        by_uid = self._by_uid
        out = [by_uid[key[1]] for key in chosen]
        self._counter.add_search(0, 0, k.last_probes, len(out))
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
        machine-checked invariant list (cached count and maximum, leaf
        and secondary ordering, uid-map bijection, primary/secondary
        leaf-set equality, write buffer) lives there, with one stable
        check ID per invariant.  The raised
        :class:`~repro.analysis.audit.AuditError` is an
        ``AssertionError`` subclass, preserving this method's contract.
        """
        from ..analysis.audit import AuditError, audit_tree

        # test support for the tree as its readers see it; the audits
        # themselves never flush (see audit_calendar)
        self._stored()
        findings = audit_tree(self)
        if findings:
            raise AuditError(findings)
