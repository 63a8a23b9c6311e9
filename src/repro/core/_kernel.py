"""Storage kernel for the 2-dimensional slot trees: a sorted array and
the balanced tree it implies.

The Section 4.1 availability tree is a primary tree on starting time
whose nodes carry secondary indexes on ending time.  Here the primary
tree is *implicit*: the leaves are one list sorted by ``(st, uid)``, and
the node covering ``leaves[lo:hi]`` splits at ``mid = (lo + hi + 1) // 2``
with split key ``leaves[mid - 1]`` — the perfectly balanced, leaf-oriented
tree over those leaves, with no node objects, child or parent links,
size fields or balance factor to keep right.  A node *is* its ``(lo, hi)``
pair, and so is a Phase-1 mark.

* **Phase 1** walks that tree from ``(0, count)``: ``O(log n)`` steps,
  ``O(log n)`` marked nodes, together covering exactly the ``st <= sr``
  prefix.
* **Phase 2** bisects each marked node's secondary index —
  ``sorted((et, uid) for leaves[lo:hi])`` — and k-way-merges the feasible
  suffixes into the canonical globally-earliest-ending order
  (:func:`~repro.core.merge.merge_earliest`).  A secondary is
  materialised the first time a search bisects its node and dropped by
  the next update, so a node nobody searches never has one.
* **Updates** have one path.  :class:`~repro.core.slot_tree.TwoDimTree`
  buffers writes and applies them when the tree is next read, so every
  update arrives as one ``apply_batch(removals, inserts)``: drop the
  removed uids, append the inserts, re-sort — one array pass per *read*
  slot, near-linear because the survivors are already in order.  A batch
  naming a removal the tree does not hold (or naming one twice) is
  refused before anything is changed.  ``bulk_load`` is the same path on
  an empty tree.

Why no dynamic tree?  A slot's tree is rebuilt-or-spliced once per read
and holds a few dozen periods (DESIGN.md §13 has the measured traffic
and the tree size at which a dynamic tree would win again); a balancing
scheme pays off on one long-lived structure updated in place, and this
is not one.

The kernel speaks *primitives only*: a period is ``(st, et, uid)``.
:class:`~repro.core.slot_tree.TwoDimTree` wraps it, owns the uid →
:class:`~repro.core.types.IdlePeriod` map, and folds the ``last_*``
accounting fields into the shared
:class:`~repro.core.opcount.OpCounter`.  The module stays in the
mypyc-friendly subset (plain ints/floats, fixed tuples, lists, dicts —
no dataclasses, no dynamic attributes), so ``REPRO_MYPYC=1 pip install
-e .`` compiles it together with :mod:`repro.core.merge`.
"""

from __future__ import annotations

from bisect import bisect_left

from .merge import merge_earliest

__all__ = ["IS_COMPILED", "TreeKernel"]

#: True when this module is running as a mypyc-compiled extension; the
#: compiled module's ``__file__`` points at the shared object, the pure
#: fallback's at this source file.
IS_COMPILED: bool = not __file__.endswith(".py")

_NEG_INF: float = float("-inf")


class TreeKernel:
    """One slot tree: sorted leaves, cached summary, on-demand secondaries.

    After :meth:`phase1` and :meth:`phase2` the ``last_*`` fields hold
    that call's elementary-operation counts for the wrapper to fold into
    the shared :class:`~repro.core.opcount.OpCounter`.
    """

    def __init__(self) -> None:
        #: stored periods as ``(st, uid, et)``, ascending — ``(st, uid)``
        #: is unique, so the ordering never consults ``et``
        self.leaves: list[tuple[float, int, float]] = []
        #: ``len(leaves)``, the root node's upper bound
        self.count: int = 0
        #: latest ending time of any leaf; ``-inf`` when empty
        self.max_et: float = _NEG_INF
        #: node ``(lo, hi)`` -> its secondary index, for the nodes a
        #: search has bisected since the last update
        self.secs: dict[tuple[int, int], list[tuple[float, int]]] = {}
        self.last_visits: int = 0
        self.last_probes: int = 0

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def phase1(self, sr: float) -> tuple[int, list[tuple[int, int]]]:
        """Mark every subtree of candidates (``st <= sr``); see the paper.

        Returns the candidate count and the marked nodes in marking order
        (ascending start ranges).
        """
        leaves = self.leaves
        marks: list[tuple[int, int]] = []
        visits = 0
        lo = 0
        hi = self.count
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
        self.last_visits = visits
        # the marks tile the prefix [0, lo)
        return lo, marks

    def phase2(
        self, marks: list[tuple[int, int]], er: float, need: int, partial: bool
    ) -> list[tuple[float, int]] | None:
        """Canonical Phase 2 over the marked subtrees.

        Returns the chosen ``(et, uid)`` keys — the globally
        earliest-ending feasible periods, uid tie-break — or ``None``
        when fewer than ``need`` are feasible (unless ``partial``).
        ``need < 0`` retrieves every feasible key (range searches).
        """
        bound = (er, -1)
        probes = 0
        avail = 0
        runs: list[tuple[list[tuple[float, int]], int]] = []
        secs = self.secs
        for mark in marks:
            ks = secs.get(mark)
            if ks is None:
                # built once per node per update, then only bisected
                lo, hi = mark
                ks = sorted(  # repro: noqa: RA002
                    [(et, uid) for _st, uid, et in self.leaves[lo:hi]]
                )
                secs[mark] = ks
            idx = bisect_left(ks, bound)
            probes += len(ks).bit_length()
            if idx < len(ks):
                avail += len(ks) - idx
                runs.append((ks, idx))
        self.last_probes = probes
        if need < 0:
            need = avail
        if avail < need and not partial:
            return None
        chosen: list[tuple[float, int]] = merge_earliest(runs, need)
        return chosen

    def uids_inorder(self) -> list[int]:
        """Stored uids in ascending ``(st, uid)`` order."""
        return [uid for _st, uid, _et in self.leaves]

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------

    def apply_batch(
        self,
        removals: list[tuple[float, float, int]],
        inserts: list[tuple[float, float, int]],
    ) -> bool:
        """Apply one batch (``(st, et, uid)`` each), removals first.

        Returns False — with nothing changed — when a removal is not
        stored or is listed twice.
        """
        kept = self.leaves
        if removals:
            drop = {uid for _st, _et, uid in removals}
            kept = [leaf for leaf in kept if leaf[1] not in drop]
            if len(drop) != len(removals) or len(kept) != len(self.leaves) - len(drop):
                return False
        if inserts:
            # in place when nothing was dropped: no failure can follow
            kept += [(st, uid, et) for st, et, uid in inserts]
            kept.sort()
        self.leaves = kept
        self.count = len(kept)
        self.max_et = max([et for _st, _uid, et in kept]) if kept else _NEG_INF
        self.secs = {}
        return True

    def bulk_load(self, items: list[tuple[float, float, int]]) -> None:
        """Replace the contents with ``items``: a batch on an empty tree."""
        self.leaves = []
        self.apply_batch([], items)
