"""The canonical earliest-ending k-way merge, as a pure function.

PR 4 made Phase-2 selection canonical: among the feasible candidate
periods, the globally earliest-ending ones win, ties broken by uid
ascending.  Inside one :class:`~repro.core.slot_tree.TwoDimTree` that is
a k-way merge over the marked subtrees' secondary ``(et, uid)`` arrays.
This module is that merge, factored out so the array-backed kernel and
the retained node-based reference tree run literally the same code.

The function is deliberately free of tree vocabulary: a *run* is
any ascending list of comparable tuples plus a start offset, and the
result is the globally smallest ``need`` items across all runs, in
order.  Tuples longer than ``(et, uid)`` are fine — ``(et, uid)`` is a
unique prefix for every caller here, so trailing payload fields (server,
st, …) ride along without ever being consulted by a comparison.
"""

from __future__ import annotations

from heapq import heapify, heappop, heapreplace
from typing import Sequence, TypeVar

__all__ = ["merge_earliest"]

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
