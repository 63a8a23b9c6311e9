"""Operation-count instrumentation.

Figure 7(b) of the paper reports the *number of computational operations*
the scheduler performs per request as the advance-reservation fraction
grows.  Rather than wall-clock time (noisy, machine dependent) the data
structures count their elementary operations: tree-node visits, key
comparisons, secondary-index probes, and structural updates.

An :class:`OpCounter` is threaded through the calendar, the slot trees and
the co-allocator; all counting is plain integer addition so that the
instrumented code stays cheap enough to leave permanently enabled.
"""

from __future__ import annotations

from collections import Counter

__all__ = ["OpCounter", "NULL_COUNTER"]


class OpCounter:
    """Accumulates named operation counts.

    The categories used by the library:

    ``node_visit``
        Primary-tree nodes touched during Phase 1 (descent steps).
    ``secondary_probe``
        Binary-search steps inside secondary (ending-time) indexes, plus
        one per retry-ladder certificate (it reads a tree's latest end).
    ``mark``
        Subtrees marked as candidate containers in Phase 1.
    ``retrieve``
        Feasible idle periods retrieved (the ``O(n_r)`` traversal).
    ``insert`` / ``remove``
        Idle-period insertions/removals applied to slot trees (counted at
        the flush; a pair that cancels in a write buffer is never counted).
    ``attempt``
        Scheduling attempts: grid points of the retry ladder covered,
        whether searched by Phase 1/2 or certified infeasible in O(1).
    ``rebuild``
        Leaves settled by slot-tree updates: the size of the tree each
        flush (or ``bulk_load``) leaves behind — its one array pass.
    """

    __slots__ = ("counts",)

    def __init__(self) -> None:
        self.counts: Counter[str] = Counter()

    def add(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    # Fused entry points for the slot-tree hot path: one call per tree
    # operation instead of one per category.  Totals are identical to
    # the equivalent sequence of :meth:`add` calls.

    def add_search(self, visits: int, marks: int, probes: int, retrieved: int) -> None:
        """One Phase-1 walk (+ optional Phase 2) over a slot tree."""
        c = self.counts
        if visits:
            c["node_visit"] += visits
        if marks:
            c["mark"] += marks
        if probes:
            c["secondary_probe"] += probes
        if retrieved:
            c["retrieve"] += retrieved

    def add_batch(self, inserts: int, removals: int, settled: int) -> None:
        """One slot-tree flush: ``inserts`` and ``removals`` applied,
        leaving a tree of ``settled`` leaves."""
        c = self.counts
        if inserts:
            c["insert"] += inserts
        if removals:
            c["remove"] += removals
        if settled:
            c["rebuild"] += settled

    def total(self) -> int:
        """Total operations across every category."""
        return sum(self.counts.values())

    def get(self, name: str) -> int:
        return self.counts.get(name, 0)

    def reset(self) -> None:
        self.counts.clear()

    def snapshot(self) -> dict[str, int]:
        """An independent copy of the current counts."""
        return dict(self.counts)

    def merge(self, other: "OpCounter") -> None:
        self.counts.update(other.counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.counts.items()))
        return f"OpCounter({inner})"


class _NullCounter(OpCounter):
    """A counter that discards everything; used when instrumentation is off."""

    __slots__ = ()

    def add(self, name: str, n: int = 1) -> None:  # noqa: D102 - interface
        pass

    def add_search(self, visits: int, marks: int, probes: int, retrieved: int) -> None:  # noqa: D102
        pass

    def add_batch(self, inserts: int, removals: int, settled: int) -> None:  # noqa: D102
        pass


#: Shared do-nothing counter; safe because it holds no state.
NULL_COUNTER = _NullCounter()
