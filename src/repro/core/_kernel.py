"""Array-backed storage kernel for the 2-dimensional slot trees.

This module is the *flattened* form of the Section 4.1 availability tree:
instead of one heap-allocated ``_Node`` object per tree node, every node
is an integer id into struct-of-arrays storage — parallel lists holding
the split keys, subtree sizes, child/parent links and per-node secondary
``(et, uid)`` indexes.  The semantics are exactly those of the original
node-backed tree (kept as :mod:`repro.core.slot_tree_nodes` and proven
equivalent by the hypothesis suite in
``tests/property/test_array_equivalence.py``):

* a leaf-oriented, α-weight-balanced primary BST over ``(st, uid)``;
* per-node secondary sorted arrays over ``(et, uid)``;
* Phase 1 marks ``O(log N)`` subtree roots, Phase 2 k-way-merges their
  secondary suffixes into the canonical globally-earliest-ending order.

Why arrays?  Two reasons, one per build:

* **compiled** — the module is written in the mypyc-friendly subset
  (plain ints/floats/fixed tuples, no dataclasses, no monkeypatching,
  no dynamic attributes), so ``REPRO_MYPYC=1 pip install -e .`` compiles
  it (together with :mod:`repro.core.merge`) to a C extension where
  ``left[node]`` is a native array load instead of a dict-backed
  attribute lookup;
* **pure** — even interpreted, integer ids let update batches defer and
  coalesce partial rebuilds (see :meth:`TreeKernel.apply_batch`), which
  removes the dominant cost of the per-period update loop.

The kernel speaks *primitives only*: a period is ``(st, et, uid)``.
:class:`~repro.core.slot_tree.TwoDimTree` wraps it, owns the uid →
:class:`~repro.core.types.IdlePeriod` map, and flushes the kernel's
per-operation accounting fields into the shared
:class:`~repro.core.opcount.OpCounter`.

Batch updates (the only update path)
------------------------------------

:class:`~repro.core.slot_tree.TwoDimTree` buffers writes and applies them
when the tree is next read, so every update reaches the kernel as one
``apply_batch(removals, insertions)``: a single pass with **deferred
rebalancing**.  The per-operation walks update sizes and secondary
arrays one period at a time, but instead of partially rebuilding at the
first α-unbalanced ancestor of every single operation, each walk only
*records* the unbalanced nodes it passes.  After the last
operation the recorded candidates are re-checked against the final sizes
and only the ones still unbalanced are rebuilt — typically one rebuild
per batch instead of one per ~3 operations.  This is sound because a
node's subtree sizes change only via operations passing through it, so
the last operation through any node sees (and records against) its final
size; and it changes *nothing observable*: Phase-2 selection has been a
pure function of tree content since the canonical-merge change, so
different intermediate shapes cannot change scheduling outcomes.

When the batch is large relative to the tree — always so for an empty
tree, where ``k`` walks would chain ``k`` same-slot keys into a list
before the deferred rebuild straightens it — the kernel skips the
per-operation walks entirely and rebuilds the whole tree from the merged
leaf list (the bulk-load path): ``O(n + k log k)`` against the batch's
``O(k · log² n)``.
"""

from __future__ import annotations

from bisect import bisect_left, insort_left

from .merge import merge_earliest

__all__ = ["ALPHA", "IS_COMPILED", "NIL", "TreeKernel", "UID_MAX"]

#: Weight-balance factor: a node with ``size(child) > ALPHA * size(node)``
#: triggers a partial rebuild of the highest unbalanced subtree.  0.8
#: trades slightly deeper trees (depth <= log_{1.25} n ~= 3.1 log2 n) for
#: far fewer rebuilds under the monotone insertion patterns the calendar
#: produces (remnants carry ever-increasing uids).
ALPHA = 0.8

#: Sentinel uid bound that compares after every real uid (uids come from
#: ``itertools.count``; 2**62 is unreachable).  Turns a scalar start-time
#: bound into a search key sorting after every real ``(st, uid)`` key
#: with the same st — the integer stand-in for the old ``math.inf``.
UID_MAX = 1 << 62

#: Null node id.
NIL = -1

#: True when this module is running as a mypyc-compiled extension; the
#: compiled module's ``__file__`` points at the shared object, the pure
#: fallback's at this source file.
IS_COMPILED: bool = not __file__.endswith(".py")

#: A batch whose operation count reaches ``count // _BULK_DIVISOR`` is
#: applied by rebuilding the whole tree from the merged leaf list rather
#: than by per-operation walks (each walk costs ~2·log²n array steps; a
#: full rebuild costs ~2n, so the crossover sits near n/8 for the tree
#: sizes one slot can hold).
_BULK_DIVISOR = 8


class TreeKernel:
    """Struct-of-arrays storage for one slot tree.

    Node ids index the parallel arrays; ``left[i] == NIL`` marks node
    ``i`` as a leaf.  Freed ids are recycled through ``free`` and their
    ``epoch`` bumped so deferred-rebuild candidates recorded against a
    node that has since been freed (and possibly reused) are recognised
    as stale.

    After every public operation the ``last_*`` fields hold that
    operation's elementary-operation counts for the wrapper to flush
    into the shared :class:`~repro.core.opcount.OpCounter` — one
    interpreted call per operation instead of one per category.
    """

    def __init__(self) -> None:
        self.root: int = NIL
        #: number of stored periods (leaves)
        self.count: int = 0
        #: split key; for leaves, the leaf's own ``(st, uid)``
        self.keys: list[tuple[float, int]] = []
        #: subtree sizes (leaves below, inclusive of self for leaves)
        self.size: list[int] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.parent: list[int] = []
        #: per-node secondary index: ``(et, uid)`` of every leaf below,
        #: ascending; for leaves, the single own key
        self.secs: list[list[tuple[float, int]]] = []
        #: recycled node ids
        self.free: list[int] = []
        #: bumped whenever a node id is freed; stale-candidate detection
        self.epoch: list[int] = []
        # per-operation accounting, read by the wrapper after each call
        self.last_visits: int = 0
        self.last_probes: int = 0
        self.last_marks: int = 0
        self.last_retrieved: int = 0
        self.last_rebuilt: int = 0

    # ------------------------------------------------------------------
    # node allocation
    # ------------------------------------------------------------------

    def _new_node(
        self,
        key: tuple[float, int],
        size: int,
        left: int,
        right: int,
        parent: int,
        sec: list[tuple[float, int]],
    ) -> int:
        free = self.free
        if free:
            i = free.pop()
            self.keys[i] = key
            self.size[i] = size
            self.left[i] = left
            self.right[i] = right
            self.parent[i] = parent
            self.secs[i] = sec
            return i
        i = len(self.keys)
        self.keys.append(key)
        self.size.append(size)
        self.left.append(left)
        self.right.append(right)
        self.parent.append(parent)
        self.secs.append(sec)
        self.epoch.append(0)
        return i

    def _free_node(self, i: int) -> None:
        self.epoch[i] += 1
        self.free.append(i)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def find(self, st: float, uid: int) -> tuple[int, int]:
        """Locate the leaf with key ``(st, uid)``.

        Returns ``(node, visits)``; ``node`` is ``NIL`` when absent, and
        ``visits`` counts descent steps either way so the caller can fold
        them into its accounting.
        """
        key = (st, uid)
        left = self.left
        keys = self.keys
        node = self.root
        visits = 0
        while node != NIL and left[node] != NIL:
            visits += 1
            node = left[node] if key <= keys[node] else self.right[node]
        if node != NIL and keys[node][1] == uid:
            return node, visits
        return NIL, visits

    def phase1(self, sr: float) -> tuple[int, list[int]]:
        """Mark every subtree of candidates (``st <= sr``); see the paper.

        Returns the candidate count and marked node ids in marking order.
        """
        bound = (sr, UID_MAX)
        count = 0
        marks: list[int] = []
        visits = 0
        left = self.left
        keys = self.keys
        size = self.size
        node = self.root
        while node != NIL:
            visits += 1
            lc = left[node]
            if lc == NIL:
                if keys[node] <= bound:
                    marks.append(node)
                    count += 1
                break
            if keys[node] <= bound:
                # every leaf in the left subtree starts at or before sr
                marks.append(lc)
                count += size[lc]
                node = self.right[node]
            else:
                node = lc
        self.last_visits = visits
        self.last_marks = len(marks)
        return count, marks

    def phase2(
        self, marks: list[int], er: float, need: int, partial: bool
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
        size = self.size
        for node in marks:
            ks = secs[node]
            idx = bisect_left(ks, bound)
            probes += size[node].bit_length()
            if idx < len(ks):
                avail += len(ks) - idx
                runs.append((ks, idx))
        if need < 0:
            need = avail
        if avail < need and not partial:
            self.last_probes = probes
            self.last_retrieved = 0
            return None
        chosen: list[tuple[float, int]] = merge_earliest(runs, need)
        self.last_probes = probes
        self.last_retrieved = len(chosen)
        return chosen

    def uids_inorder(self) -> list[int]:
        """Stored uids in ascending ``(st, uid)`` order."""
        if self.root == NIL:
            return []
        out: list[int] = []
        left = self.left
        right = self.right
        keys = self.keys
        stack = [self.root]
        while stack:
            node = stack.pop()
            lc = left[node]
            if lc == NIL:
                out.append(keys[node][1])
            else:
                stack.append(right[node])
                stack.append(lc)
        return out

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------

    def _insert_op(self, st: float, et: float, uid: int, cands: list[int]) -> None:
        """One insertion walk of a batch.

        *Every* α-unbalanced node on the path is appended to ``cands`` as
        an ``(id, epoch)`` pair flattened into the list: rebuilds are the
        batch flush's job (:meth:`_flush_rebuilds`).
        """
        key = (st, uid)
        sec_key = (et, uid)
        self.count += 1
        if self.root == NIL:
            self.root = self._new_node(key, 1, NIL, NIL, NIL, [sec_key])
            self.last_visits = 0
            self.last_probes = 0
            return
        keys = self.keys
        size = self.size
        left = self.left
        right = self.right
        secs = self.secs
        epoch = self.epoch
        node = self.root
        visits = 0
        probes = 0
        while left[node] != NIL:
            visits += 1
            sz = size[node] + 1
            size[node] = sz
            insort_left(secs[node], sec_key)
            # len(secs[node]) == subtree size on every node, so the probe
            # cost needs no len() call
            probes += sz.bit_length()
            lc = left[node]
            child = lc if key <= keys[node] else right[node]
            limit = ALPHA * sz
            other = right[node] if child == lc else lc
            # the descent child's final size is current + 1 — for the
            # split leaf too, which becomes an internal node of size 2 —
            # so the post-update balance test can run before the update
            # completes
            if size[child] + 1 > limit or size[other] > limit:
                cands.append(node)
                cands.append(epoch[node])
            node = child
        # split the leaf into an internal node with two leaf children
        old_key = keys[node]
        old_sec = secs[node][0]
        new_leaf = self._new_node(key, 1, NIL, NIL, NIL, [sec_key])
        if key < old_key:
            ileft, iright, ikey = new_leaf, node, key
        else:
            ileft, iright, ikey = node, new_leaf, old_key
        if sec_key < old_sec:
            isec = [sec_key, old_sec]
        else:
            isec = [old_sec, sec_key]
        old_parent = self.parent[node]
        internal = self._new_node(ikey, 2, ileft, iright, old_parent, isec)
        self.parent[node] = internal
        self.parent[new_leaf] = internal
        if old_parent == NIL:
            self.root = internal
        elif self.left[old_parent] == node:
            self.left[old_parent] = internal
        else:
            self.right[old_parent] = internal
        self.last_visits = visits
        self.last_probes = probes

    def _remove_op(self, st: float, et: float, uid: int, cands: list[int]) -> bool:
        """One removal walk of a batch; False when the period is absent.
        Unbalanced ancestors are recorded in ``cands`` (see _insert_op)."""
        leaf, visits = self.find(st, uid)
        if leaf == NIL:
            self.last_visits = visits
            self.last_probes = 0
            return False
        self.count -= 1
        par = self.parent
        parent = par[leaf]
        self._free_node(leaf)
        if parent == NIL:
            self.root = NIL
            self.last_visits = visits
            self.last_probes = 0
            return True
        left = self.left
        right = self.right
        size = self.size
        secs = self.secs
        epoch = self.epoch
        sibling = right[parent] if left[parent] == leaf else left[parent]
        grand = par[parent]
        par[sibling] = grand
        self._free_node(parent)
        if grand == NIL:
            self.root = sibling
        elif left[grand] == parent:
            left[grand] = sibling
        else:
            right[grand] = sibling
        # fused upward walk: sizes below the current ancestor are already
        # final, so the balance test runs in the same pass
        sec_key = (et, uid)
        probes = 0
        anc = grand
        while anc != NIL:
            sz = size[anc] - 1
            size[anc] = sz
            ks = secs[anc]
            del ks[bisect_left(ks, sec_key)]
            probes += (sz + 1).bit_length()
            limit = ALPHA * sz
            if size[left[anc]] > limit or size[right[anc]] > limit:
                cands.append(anc)
                cands.append(epoch[anc])
            anc = par[anc]
        self.last_visits = visits
        self.last_probes = probes
        return True

    def bulk_load(self, items: list[tuple[float, float, int]]) -> None:
        """Replace the contents with ``items`` (``(st, et, uid)`` each)
        in O(k log k) — calendar start-up and horizon rollover."""
        self.root = NIL
        self.count = 0
        self.keys.clear()
        self.size.clear()
        self.left.clear()
        self.right.clear()
        self.parent.clear()
        self.secs.clear()
        self.free.clear()
        self.epoch.clear()
        self.last_rebuilt = 0
        if not items:
            return
        ordered = sorted([(st, uid, et) for st, et, uid in items])
        leaves = [
            self._new_node((st, uid), 1, NIL, NIL, NIL, [(et, uid)])
            for st, uid, et in ordered
        ]
        self.count = len(leaves)
        self.last_rebuilt = len(leaves)
        root = self._build(leaves, 0, len(leaves), [], None)
        self.parent[root] = NIL
        self.root = root

    def apply_batch(
        self,
        removals: list[tuple[float, float, int]],
        inserts: list[tuple[float, float, int]],
    ) -> bool:
        """Apply one batch of operations against this tree in one pass.

        Removals run first, then insertions; rebalancing is deferred to a
        single flush (see the module docstring).  Accounting totals land
        in the ``last_*`` fields as one fused batch.  Returns False when
        a removal was absent — on the per-operation path the tree may
        then be partially updated (a missing removal means the caller's
        bookkeeping is already inconsistent).
        """
        n_ops = len(removals) + len(inserts)
        visits = 0
        probes = 0
        self.last_rebuilt = 0
        # an empty tree always builds (sort + _build); its one-insert
        # batch stays on the single-node fast path of _insert_op
        if n_ops * _BULK_DIVISOR >= self.count + len(inserts) and (
            self.root != NIL or len(inserts) > 1
        ):
            return self._apply_bulk(removals, inserts)
        cands: list[int] = []
        for st, et, uid in removals:
            if not self._remove_op(st, et, uid, cands):
                return False
            visits += self.last_visits
            probes += self.last_probes
        for st, et, uid in inserts:
            self._insert_op(st, et, uid, cands)
            visits += self.last_visits
            probes += self.last_probes
        self.last_visits = visits
        self.last_probes = probes
        if cands:
            self._flush_rebuilds(cands)
        return True

    def _apply_bulk(
        self,
        removals: list[tuple[float, float, int]],
        inserts: list[tuple[float, float, int]],
    ) -> bool:
        """Large-batch path: rebuild the whole tree from the merged leaves.

        Works *in place*: surviving leaves keep their node ids (and their
        single-key secondary arrays), dropped leaves are freed, new
        leaves are allocated off the free list, and the old internal
        nodes become the rebuild pool — so the arrays never shrink and
        reallocate the way a clear-and-reload would.  A removal that was
        never stored (or is listed twice) fails the batch before anything
        is freed or relinked: the tree is left exactly as it was.
        """
        self.last_visits = 0
        self.last_probes = 0
        drop = {uid for _st, _et, uid in removals}
        if len(drop) != len(removals):
            return False
        keys = self.keys
        left = self.left
        right = self.right
        leaves: list[int] = []  # survivors, in (st, uid) order
        dropped: list[int] = []  # leaves the batch removes
        pool: list[int] = []  # old internal nodes, recycled by _build
        stack = [self.root] if self.root != NIL else []
        while stack:
            node = stack.pop()
            lc = left[node]
            if lc == NIL:
                if keys[node][1] in drop:
                    dropped.append(node)
                else:
                    leaves.append(node)
            else:
                pool.append(node)
                stack.append(right[node])
                stack.append(lc)
        if len(dropped) != len(drop):
            return False
        for node in dropped:
            self._free_node(node)
        if inserts:
            ordered = sorted([(st, uid, et) for st, et, uid in inserts])
            fresh = [
                self._new_node((st, uid), 1, NIL, NIL, NIL, [(et, uid)])
                for st, uid, et in ordered
            ]
            # merge the two sorted leaf runs by key
            merged: list[int] = []
            i = 0
            j = 0
            ns = len(leaves)
            nf = len(fresh)
            while i < ns and j < nf:
                if keys[leaves[i]] <= keys[fresh[j]]:
                    merged.append(leaves[i])
                    i += 1
                else:
                    merged.append(fresh[j])
                    j += 1
            if i < ns:
                merged.extend(leaves[i:])
            if j < nf:
                merged.extend(fresh[j:])
            leaves = merged
        self.count = len(leaves)
        if not leaves:
            for node in pool:
                self._free_node(node)
            self.root = NIL
            return True
        self.last_rebuilt += len(leaves)
        root = self._build(leaves, 0, len(leaves), pool, None)
        for node in pool:  # leftovers when the batch shrank the tree
            self._free_node(node)
        self.parent[root] = NIL
        self.root = root
        return True

    # ------------------------------------------------------------------
    # rebalancing
    # ------------------------------------------------------------------

    def _flush_rebuilds(self, cands: list[int]) -> None:
        """Rebuild every recorded candidate still live and unbalanced.

        ``cands`` is ``(id, epoch)`` pairs flattened.  Larger subtrees
        are processed first: rebuilding a containing node leaves every
        descendant perfectly balanced, so nested candidates fall out on
        the recheck instead of triggering redundant rebuilds.
        """
        size = self.size
        epoch = self.epoch
        left = self.left
        right = self.right
        pairs: list[tuple[int, int, int]] = []
        seen: set[int] = set()
        for i in range(0, len(cands), 2):
            node = cands[i]
            if node not in seen:
                seen.add(node)
                pairs.append((size[node], node, cands[i + 1]))
        pairs.sort(reverse=True)
        for _sz, node, node_epoch in pairs:
            if epoch[node] != node_epoch:
                continue  # freed (and possibly reused) since recording
            if left[node] == NIL:
                continue  # now a leaf; nothing to rebalance
            sz = size[node]
            limit = ALPHA * sz
            if size[left[node]] > limit or size[right[node]] > limit:
                self._rebuild(node)

    def _rebuild(self, node: int) -> None:
        # capture the attachment point first: `node` itself enters the
        # recycling pool and is rewired while the subtree is rebuilt
        parent = self.parent[node]
        was_left = parent != NIL and self.left[parent] == node
        # the rebuilt root covers the same leaf set, so its merged
        # secondary array is the old root's, verbatim — _build never
        # mutates a recycled node's old array, it only rebinds
        top_sec = self.secs[node]
        leaves: list[int] = []
        pool: list[int] = []
        left = self.left
        right = self.right
        stack = [node]
        while stack:
            cur = stack.pop()
            lc = left[cur]
            if lc == NIL:
                leaves.append(cur)
            else:
                pool.append(cur)
                stack.append(right[cur])
                stack.append(lc)
        self.last_rebuilt += len(leaves)
        fresh = self._build(leaves, 0, len(leaves), pool, top_sec)
        self.parent[fresh] = parent
        if parent == NIL:
            self.root = fresh
        elif was_left:
            self.left[parent] = fresh
        else:
            self.right[parent] = fresh

    def _build(
        self,
        leaves: list[int],
        lo: int,
        hi: int,
        pool: list[int],
        top_sec: list[tuple[float, int]] | None,
    ) -> int:
        """Build a perfectly balanced subtree over ``leaves[lo:hi]``
        (already ordered), recycling internal ids from ``pool``.
        ``top_sec``, when given, is the node's known merged secondary
        array (the largest merge of a rebuild, skipped not recomputed)."""
        if hi - lo == 1:
            leaf = leaves[lo]
            self.left[leaf] = NIL
            self.right[leaf] = NIL
            return leaf
        mid = (lo + hi + 1) // 2  # left gets the extra leaf; key = max of left
        if pool:
            node = pool.pop()
        else:
            node = self._new_node((0.0, 0), 0, NIL, NIL, NIL, [])
        # expand single-leaf children inline: over half of all recursive
        # calls would otherwise be the trivial base case above
        if mid - lo == 1:
            lchild = leaves[lo]
            self.left[lchild] = NIL
            self.right[lchild] = NIL
        else:
            lchild = self._build(leaves, lo, mid, pool, None)
        if hi - mid == 1:
            rchild = leaves[mid]
            self.left[rchild] = NIL
            self.right[rchild] = NIL
        else:
            rchild = self._build(leaves, mid, hi, pool, None)
        self.left[node] = lchild
        self.right[node] = rchild
        self.parent[lchild] = node
        self.parent[rchild] = node
        self.keys[node] = self.keys[leaves[mid - 1]]
        self.size[node] = hi - lo
        if top_sec is not None:
            self.secs[node] = top_sec
            return node
        # merge the children's secondary arrays; when the runs do not
        # interleave (frequent: later-starting periods tend to end later)
        # a plain concatenation suffices, otherwise the concatenation is
        # two sorted runs, which timsort merges in linear time
        lk = self.secs[lchild]
        rk = self.secs[rchild]
        if lk[-1] < rk[0]:
            self.secs[node] = lk + rk
        elif rk[-1] < lk[0]:
            self.secs[node] = rk + lk
        else:
            self.secs[node] = sorted(lk + rk)
        return node
