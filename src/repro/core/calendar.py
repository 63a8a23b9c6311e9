"""Temporal resource availability over a rolling horizon (Section 4.1).

The :class:`AvailabilityCalendar` owns, for a system of ``N`` servers:

* the authoritative per-server lists of idle periods (sorted by start);
* slot-aligned :class:`~repro.core.slot_tree.TwoDimTree` indexes, at
  most one per slot of length ``tau`` within the horizon ``H = Q * tau``,
  holding the *bounded* idle periods overlapping that slot — a slot gets
  its tree when a period is first written to it, and reads as empty
  until then;
* the **tail index**: one sorted array over the unbounded trailing idle
  periods (``et = ∞``, exactly one per server with no future commitment).

Why the tail index?  The paper stores every idle period in the tree of
every slot it overlaps; a trailing period overlaps *all* ``Q`` slots, so
carving a job out of one (the common case — every allocation at the end
of a server's schedule does it) would cost ``O(n_r · Q · log^2 N)`` tree
updates, the dominant term of the paper's own update bound.  A trailing
period, however, is feasible for *any* window that starts after it does:
its ending time can never fail the Phase-2 test.  Factoring those periods
into a single start-time-sorted array preserves the exact feasibility
semantics (Phase 1's candidate count gains a ``bisect``; Phase 2's
feasible set gains a suffix of the array) while making the common-case
update ``O(log N)`` instead of ``O(Q log^2 N)``.  Selection order is also
preserved sensibly: bounded feasible periods (earliest-ending first, the
paper's secondary-tree in-order preference) are taken before unbounded
ones, which is exactly the best-fit tendency of the paper's traversal.

**The horizon is arithmetic.**  Slot ``q`` is active iff
``base <= q < base + Q``, where ``base`` is the slot holding ``now``; the
paper's discard/initialize cycle at a slot boundary is "move ``base``,
drop the trees of the slots that expired".  Nothing has to be created
for a slot that rolls in, because nothing can already be waiting for it:
a bounded idle period ends where some reservation starts, a reservation
may only start inside the horizon (:meth:`allocate` and :meth:`release`
refuse anything else), and the horizon's end never moves back — so
**every bounded period ends at or before ``horizon_end``**, when it is
created and ever after.

Slot trees are write-buffered (see :mod:`repro.core.slot_tree`): the
calendar registers and withdraws a period with one O(1) ``insert`` /
``remove`` per overlapped slot, and a slot's tree is brought up to date
when a search next reads it.  That is the one update path: allocation,
release and drain all write such notes, and a slot that is written and
rolled over without being searched costs no tree work at all.

**Elastic pool.**  The server set may change at runtime (the ROADMAP's
elastic-cluster extension): :meth:`add_servers` grows the pool,
:meth:`drain` stops a server from admitting *new* reservations while
every existing commitment is honored, and :meth:`remove` retires a
server once drained.  Server identity is positional and stable forever —
a removed server keeps its index (with an empty period list) so snapshot
layout and every ``range(n_servers)`` iteration stay valid;
``n_servers`` therefore counts every server that ever joined.
Draining is implemented entirely in the *derived* indexes: the
authoritative per-server lists are untouched (physical idleness is what
conservation audits), but the server's periods leave the slot trees
and the tail index, so Phase-1 counts, Phase-2 selection and
range searches naturally stop offering it.  Every server always carries
exactly one trailing unbounded idle period (allocation regenerates the
right remnant, release merges preserve it, history trimming never drops
it), so "drained" has a one-line test: the trailing period starts at or
before ``now``.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right

from .opcount import NULL_COUNTER, OpCounter
from .slot_tree import TwoDimTree
from .types import INF, IdlePeriod, make_period

__all__ = ["AvailabilityCalendar", "POOL_STATES"]

#: legal per-server pool states, in lifecycle order (transitions are
#: one-way: active -> draining -> removed)
POOL_STATES = ("active", "draining", "removed")

#: sentinel uid bound making ``(t, _UID_HIGH)`` compare after any real key
_UID_HIGH = math.inf


class AvailabilityCalendar:
    """Tracks when each of ``n_servers`` is free, indexed for co-allocation.

    Parameters
    ----------
    n_servers:
        Number of servers ``N`` in the system.
    tau:
        Slot length ``τ`` (the paper sets it to the minimum temporal
        reservation size).
    q_slots:
        Number of slots ``Q`` in the horizon; ``H = Q * tau``.
    start_time:
        Simulation time at which the calendar begins; every server is
        idle from ``start_time`` onward.
    counter:
        Optional operation counter shared with the slot trees.

    The calendar numbers its own idle periods from 0, in creation order
    (the Phase-2 tie-break), and its snapshot carries the counter: two
    calendars that saw the same operations hold the same uids.
    """

    def __init__(
        self,
        n_servers: int,
        tau: float,
        q_slots: int,
        start_time: float = 0.0,
        counter: OpCounter = NULL_COUNTER,
    ) -> None:
        self._build_empty(n_servers, tau, q_slots, start_time, counter)
        # every server idle from ``now`` on, numbered in server order
        initial = [IdlePeriod(server=s, st=self.now, et=INF, uid=s) for s in range(n_servers)]
        #: the uid of the next period this calendar creates
        self._next_uid = n_servers
        self._server_periods = [[period] for period in initial]
        self._server_keys = [[period.st] for period in initial]
        self._inf_keys = [(period.st, period.uid) for period in initial]
        self._inf_periods = initial

    def _build_empty(
        self,
        n_servers: int,
        tau: float,
        q_slots: int,
        start_time: float,
        counter: OpCounter,
    ) -> None:
        """Geometry and empty indexes: ``n_servers`` servers with no periods."""
        if n_servers <= 0:
            raise ValueError(f"need at least one server, got {n_servers}")
        if tau <= 0:
            raise ValueError(f"slot length must be positive, got {tau}")
        if q_slots <= 0:
            raise ValueError(f"need at least one slot, got {q_slots}")
        self.n_servers = n_servers
        self.tau = float(tau)
        self.q_slots = q_slots
        self.counter = counter
        self.now = float(start_time)

        # the base slot must come from the same robust arithmetic as
        # slot_of(): floor(start_time / tau) can disagree with slot_of by
        # one near a fractional-tau slot boundary (e.g. 3*0.3 < 0.9), and
        # a snapshot-restored calendar is rebuilt with start_time = the
        # original's now — a floor-based base would shift its horizon one
        # slot relative to the original's, breaking restart identity
        self._base_slot = self.slot_of(self.now)
        # sparse: a tree per active slot that has been written to; any
        # other active slot is read through the one shared, never-written
        # ``_unwritten``
        self._trees: dict[int, TwoDimTree] = {}
        self._unwritten = TwoDimTree(counter)
        self._server_periods: list[list[IdlePeriod]] = [[] for _ in range(n_servers)]
        # parallel per-server key arrays: starting times of the periods in
        # ``_server_periods`` (disjoint periods have unique starts per
        # server), so membership and insertion points are a bisect instead
        # of a scan or a per-insert key-list rebuild
        self._server_keys: list[list[float]] = [[] for _ in range(n_servers)]
        # tail index: unbounded periods, parallel arrays sorted by (st, uid);
        # keyed as float pairs so probes like ``(sr, _UID_HIGH)`` type-check
        self._inf_keys: list[tuple[float, float]] = []
        self._inf_periods: list[IdlePeriod] = []
        # elastic pool: per-server lifecycle state, positionally parallel
        # to _server_periods; only "active" servers live in derived indexes
        self._status: list[str] = ["active"] * n_servers

    # ------------------------------------------------------------------
    # geometry helpers
    # ------------------------------------------------------------------

    @property
    def horizon_start(self) -> float:
        """Start of the first active slot."""
        return self._base_slot * self.tau

    @property
    def horizon_end(self) -> float:
        """End of the last active slot; nothing later can be searched."""
        return (self._base_slot + self.q_slots) * self.tau

    def slot_of(self, t: float) -> int:
        """Absolute index of the slot containing time ``t``.

        Robust against the ≤1-ulp rounding of ``t / tau`` for non-integral
        ``tau``: the result always satisfies ``q*tau <= t < (q+1)*tau``
        under the *same* float products that slot-overlap tests use, so a
        time sitting exactly on a slot boundary can never be attributed to
        the wrong slot.
        """
        tau = self.tau
        q = int(t // tau)
        while t < q * tau:
            q -= 1
        while t >= (q + 1) * tau:
            q += 1
        return q

    def in_horizon(self, t: float) -> bool:
        """True when ``t`` falls inside an active slot."""
        return self._base_slot <= self.slot_of(t) < self._base_slot + self.q_slots

    # ------------------------------------------------------------------
    # time advance / rollover
    # ------------------------------------------------------------------

    def advance(self, to_time: float) -> None:
        """Move the clock forward, rolling the horizon over expired slots.

        The horizon is arithmetic, so rolling it is setting the base
        slot and dropping the trees of the slots that expired —
        ``O(min(jump/τ, Q))`` pops however far the clock jumps.  Nothing
        is created for the slots that roll in: no bounded period can end
        beyond the old horizon (see the module docstring), so none was
        waiting for them.
        """
        if to_time < self.now:
            raise ValueError(f"cannot move time backwards ({to_time} < {self.now})")
        self.now = to_time
        current = self.slot_of(to_time)
        old_base = self._base_slot
        if current == old_base:
            return
        self._base_slot = current
        trees = self._trees
        if current - old_base >= self.q_slots:
            trees.clear()  # the jump clears the whole horizon
        else:
            for q in range(old_base, current):
                trees.pop(q, None)
        self._trim_history()

    def _trim_history(self) -> None:
        """Drop per-server periods that ended before the horizon start."""
        cutoff = self.horizon_start
        for server, periods in enumerate(self._server_periods):
            n = 0
            for p in periods:
                if p.et > cutoff:
                    break
                n += 1
            if n:
                del periods[:n]
                del self._server_keys[server][:n]

    # ------------------------------------------------------------------
    # period registration
    # ------------------------------------------------------------------

    def _last_overlapping_slot(self, et: float) -> int:
        """Last slot a period with (finite) ending time ``et`` overlaps.

        ``et`` is an open endpoint: a period ending exactly on a slot
        boundary does not overlap the next slot.  :meth:`slot_of` pins
        ``et`` to the slot whose boundary products bracket it, so the
        boundary test is a float-exact comparison rather than the modulo
        arithmetic that drifts for non-integral ``tau``.
        """
        q = self.slot_of(et)
        return q - 1 if et <= q * self.tau else q

    def _overlapping_slots(self, period: IdlePeriod) -> range:
        """Active slot indexes a bounded period must appear in (all inside
        the horizon: no bounded period ends beyond it)."""
        first = max(self.slot_of(period.st), self._base_slot)
        return range(first, self._last_overlapping_slot(period.et) + 1)

    def _index_period(self, period: IdlePeriod) -> None:
        """Register ``period`` with every derived index.

        Slot-tree insertions are O(1) notes in each overlapped tree's
        write buffer — the first one written to a slot creates its tree;
        tail-index bookkeeping is immediate (it is O(log N) array work
        with no rebalancing to fuse).

        Periods of draining or removed servers are *not* registered in
        any derived index — a drained-out server must stop appearing in
        searches, while cancellations may still merge and re-create its
        authoritative periods.
        """
        if self._status[period.server] != "active":
            return
        if period.et == INF:
            idx = bisect_right(self._inf_keys, (period.st, period.uid))
            self._inf_keys.insert(idx, (period.st, period.uid))
            self._inf_periods.insert(idx, period)
            self.counter.add("insert")
            return
        trees = self._trees
        for q in self._overlapping_slots(period):
            tree = trees.get(q)
            if tree is None:
                tree = trees[q] = TwoDimTree(self.counter)
            tree.insert(period)

    def _unindex_period(self, period: IdlePeriod) -> None:
        if self._status[period.server] != "active":
            # non-active servers' periods were unindexed when the server
            # left the pool (see drain); there is nothing to remove
            return
        if period.et == INF:
            idx = bisect_right(self._inf_keys, (period.st, period.uid)) - 1
            assert idx >= 0 and self._inf_keys[idx] == (period.st, period.uid)
            self._inf_keys.pop(idx)
            self._inf_periods.pop(idx)
            self.counter.add("remove")
            return
        trees = self._trees
        for q in self._overlapping_slots(period):
            trees[q].remove(period)

    def _add_period(self, period: IdlePeriod) -> None:
        keys = self._server_keys[period.server]
        idx = bisect_right(keys, period.st)
        keys.insert(idx, period.st)
        self._server_periods[period.server].insert(idx, period)
        self._index_period(period)

    def _drop_period(self, period: IdlePeriod) -> None:
        keys = self._server_keys[period.server]
        periods = self._server_periods[period.server]
        idx = bisect_left(keys, period.st)
        # starts are unique per server, so the key pins the exact period;
        # a stale handle (already carved by someone else) raises, matching
        # the commit-after-range-search failure contract
        if idx >= len(periods) or periods[idx] is not period:
            raise ValueError(f"{period} is not registered on server {period.server}")
        del keys[idx]
        del periods[idx]
        self._unindex_period(period)

    # ------------------------------------------------------------------
    # allocation and release
    # ------------------------------------------------------------------

    def allocate(
        self,
        periods: list[IdlePeriod],
        start: float,
        end: float,
    ) -> tuple[int, ...]:
        """Carve ``[start, end)`` out of each given feasible idle period.

        Returns the periods' servers, in the order given.  Each period is
        removed from every index it lives in and replaced by at most two
        remnants — ``(st, start)`` and ``(end, et)`` — exactly the update
        rule of Section 4.2.

        Everything is checked before anything is touched, so a refused
        call changes nothing (``ValueError``): the window must be
        non-empty, must end (an open-ended grant would leave its servers
        no trailing period), and ``start`` must lie inside the horizon
        (the left remnant ends at ``start``, and no bounded period may
        end beyond the horizon — the retry ladder never offers such a
        start, but callers that bring their own may:
        :meth:`~repro.core.coalloc.OnlineCoAllocator.commit`); every
        period must host the window, must still be registered (a handle
        carved since a range search returned it is stale), and may be
        named only once.

        One pass over the periods then does the carving (DESIGN.md §15):
        one splice of each server's key and period arrays, one
        ``bisect`` and ``del`` per trailing period leaving the tail
        index, and each remnant's slot range computed once.  The left
        remnant of an active trailing period that starts in the
        horizon's first slot or before it — nearly every remnant a wide
        request carves — is that period's only slot note, and it enters
        exactly the slots ``base..left_last`` that every other such
        remnant enters.  Those remnants are gathered into one
        ``{uid: period}`` dict that each of those slots receives after
        the loop as one :meth:`TwoDimTree.insert_many` note (DESIGN.md
        §21); every other remnant is noted slot by slot.  Remnants come
        from the trusted constructor of :mod:`repro.core.types`: the
        branch that builds each one has just proven it non-empty, so it
        is not proven again.  The ``O(n_r · Q)`` slot-tree updates one
        request implies are O(1) notes in the write buffers of the
        overlapped trees, each applied — fused with whatever else that
        slot has been told since — when the slot is next searched, or
        never if it rolls out of the horizon first.  Remnant uids are
        drawn from the calendar's counter left remnant then right
        remnant, period by period (the Phase-2 tie-break), so the new
        trailing remnants — all starting at ``end``, with uids above any
        stored one — enter the tail index as one sorted block.
        Draining and removed servers' periods are carved in the
        authoritative lists only.
        """
        if start >= self.horizon_end:
            raise ValueError(
                f"start {start} is beyond the schedulable horizon "
                f"[{self.horizon_start}, {self.horizon_end})"
            )
        if not start < end:
            raise ValueError(f"allocation window [{start}, {end}) is empty")
        if end == INF:
            raise ValueError(f"allocation window [{start}, {end}) never ends")
        for period in periods:
            if not period.is_feasible(start, end):
                raise ValueError(
                    f"period {period} cannot host [{start}, {end}) on server {period.server}"
                )
        all_keys, all_periods = self._server_keys, self._server_periods
        where: list[int] = []
        for period in periods:
            # starts are unique per server, so the key pins the exact period
            keys = all_keys[period.server]
            idx = bisect_left(keys, period.st)
            if idx == len(keys) or all_periods[period.server][idx] is not period:
                raise ValueError(f"{period} is not registered on server {period.server}")
            where.append(idx)
        servers = tuple([period.server for period in periods])
        if len(set(servers)) < len(servers):
            # registered periods of one server are disjoint, so two that
            # both host the window are one period named twice
            seen: set[int] = set()
            for period in periods:
                if period.server in seen:
                    raise ValueError(f"{period} is named twice in one allocation")
                seen.add(period.server)

        status, trees, counter = self._status, self._trees, self.counter
        inf_keys, inf_periods = self._inf_keys, self._inf_periods
        # nothing below can refuse the call, so the counter is stored
        # back once, after the loop, with no draw lost
        uid = self._next_uid
        new_period = make_period
        base = self._base_slot
        # slot_of(t) < base exactly when t < base·τ: slot_of brackets t
        # between the same float products, and they are monotone in q
        base_start = base * self.tau
        left_last = self._last_overlapping_slot(start)
        right_first = max(self.slot_of(end), base)
        tail_removed = 0
        trailing: list[IdlePeriod] = []
        # left remnants whose slots are base..left_last, noted there at the end
        lefts: dict[int, IdlePeriod] = {}
        for period, idx in zip(periods, where):
            server, st, et = period.server, period.st, period.et
            active = status[server] == "active"
            if active:
                first = base if st < base_start else self.slot_of(st)
                if et == INF:
                    # unbounded: in the tail index, in no slot tree
                    i = bisect_right(inf_keys, (st, period.uid)) - 1
                    assert inf_periods[i] is period, f"{period} missing from the tail index"
                    del inf_keys[i]
                    del inf_periods[i]
                    tail_removed += 1
                else:
                    # the carved period's slots; a right remnant ends
                    # where it does, so ``last`` serves both
                    last = self._last_overlapping_slot(et)
                    for q in range(first, last + 1):
                        trees[q].remove(period)
            new_keys: list[float] = []
            new_periods: list[IdlePeriod] = []
            if st < start:
                # trusted: non-empty by this branch's condition
                left = new_period(server, st, start, uid)
                uid += 1
                new_keys.append(st)
                new_periods.append(left)
                if active:
                    if first == base and et == INF:
                        # a trailing period and its right remnant are in
                        # no tree, so this note is the period's only one,
                        # and its slots are base..left_last like every
                        # other such left remnant's
                        lefts[left.uid] = left
                    else:
                        for q in range(first, left_last + 1):
                            tree = trees.get(q)
                            if tree is None:
                                tree = trees[q] = TwoDimTree(counter)
                            tree.insert(left)
            if end < et:
                # trusted: non-empty by this branch's condition
                right = new_period(server, end, et, uid)
                uid += 1
                new_keys.append(end)
                new_periods.append(right)
                if active:
                    if et == INF:
                        trailing.append(right)
                    else:
                        for q in range(right_first, last + 1):
                            tree = trees.get(q)
                            if tree is None:
                                tree = trees[q] = TwoDimTree(counter)
                            tree.insert(right)
            all_keys[server][idx : idx + 1] = new_keys
            all_periods[server][idx : idx + 1] = new_periods
        self._next_uid = uid
        if lefts:
            # each of these left remnants starts no later than slot base
            # and ends at ``start``: it overlaps exactly base..left_last
            for q in range(base, left_last + 1):
                tree = trees.get(q)
                if tree is None:
                    tree = trees[q] = TwoDimTree(counter)
                tree.insert_many(lefts)
        if tail_removed:
            counter.add("remove", tail_removed)
        if trailing:
            # every new trailing remnant starts at ``end`` with a fresh,
            # ascending uid above any stored one (the counter only grows,
            # and from_state refuses one at or below a persisted uid), so
            # they are one sorted run that no stored key falls inside
            i = bisect_right(inf_keys, (end, trailing[0].uid))
            assert i == len(inf_keys) or inf_keys[i][0] > end, "trailing remnant uid is not fresh"
            inf_keys[i:i] = [(end, p.uid) for p in trailing]
            inf_periods[i:i] = trailing
            counter.add("insert", len(trailing))
        return servers

    def release(self, server: int, start: float, end: float) -> None:
        """Return ``[start, end)`` on ``server`` to the idle pool.

        Used by cancellation and early-completion reclamation.  The
        released interval is merged with adjacent idle periods so that
        idle periods stay maximal.  A refused release (``ValueError``)
        changes nothing: both merge candidates are found and the window
        checked before either is dropped.  The merged period
        ``[lo, hi) ⊇ [start, end)`` is therefore non-empty, and it is
        built by the trusted constructor
        (:func:`~repro.core.types.make_period`) with the calendar's next
        uid, drawn after the drops.
        """
        if not start < end:
            raise ValueError(f"release window [{start}, {end}) is empty")
        periods = self._server_periods[server]
        keys = self._server_keys[server]
        # the only merge candidates are the period starting exactly at
        # ``end`` and the one ending exactly at ``start`` — both found by
        # one bisect on the key array
        idx = bisect_left(keys, end)
        after = periods[idx] if idx < len(keys) and keys[idx] == end else None
        if after is None and end > self.horizon_end:
            # nothing idle starts at ``end``, so the freed period would be
            # bounded there; a reservation's own end always passes (what
            # follows it is idle, or busy from a start inside the horizon)
            raise ValueError(
                f"release of [{start}, {end}) on server {server} would leave an "
                f"idle period ending beyond the horizon end {self.horizon_end}"
            )
        # disjointness check: periods are sorted and pairwise disjoint, so
        # the last one starting before ``end`` ends latest among them and
        # is the only one that can overlap the window; once it does not,
        # it is also the only candidate for ending exactly at ``start``
        before = periods[idx - 1] if idx > 0 else None
        if before is not None and before.et > start:
            raise ValueError(
                f"release of [{start}, {end}) on server {server} overlaps "
                f"idle period {before}"
            )
        lo, hi = start, end
        if after is not None:
            hi = after.et
            self._drop_period(after)
        if before is not None and before.et == start:
            lo = before.st
            self._drop_period(before)
        uid = self._next_uid
        self._next_uid = uid + 1
        # trusted: lo <= start < end <= hi, the window checked above
        self._add_period(make_period(server, lo, hi, uid))

    # ------------------------------------------------------------------
    # elastic pool (runtime join / drain / leave)
    # ------------------------------------------------------------------

    def _check_server(self, server: int) -> None:
        if not 0 <= server < self.n_servers:
            raise ValueError(
                f"server {server} out of range (pool has ever held "
                f"{self.n_servers} servers)"
            )

    def server_status(self, server: int) -> str:
        """Lifecycle state of one server: active, draining or removed."""
        self._check_server(server)
        return self._status[server]

    def pool_counts(self) -> dict[str, int]:
        """Pool membership by state; ``total`` counts every id ever used."""
        counts = {state: 0 for state in POOL_STATES}
        for status in self._status:
            counts[status] += 1
        counts["total"] = self.n_servers
        return counts

    def pool_status(self) -> dict[str, object]:
        """Pool membership plus per-server drain progress."""
        return {
            **self.pool_counts(),
            "servers": list(self._status),
            "drain_progress": [
                {"server": s, "drained": self.is_drained(s)}
                for s in range(self.n_servers)
                if self._status[s] == "draining"
            ],
        }

    def is_drained(self, server: int) -> bool:
        """True when ``server`` holds no commitment after ``now``.

        Every non-removed server carries exactly one trailing unbounded
        idle period; the server is drained exactly when that period has
        already begun.  Removed servers are trivially drained.
        """
        self._check_server(server)
        if self._status[server] == "removed":
            return True
        trailing = self._server_periods[server][-1]
        assert trailing.et == INF, f"server {server} lost its trailing period"
        return trailing.st <= self.now

    def add_servers(self, count: int) -> list[int]:
        """Grow the pool by ``count`` fresh servers, idle from ``now`` on.

        Returns the new server ids (always ``n_servers_before .. +count``).
        """
        if count <= 0:
            raise ValueError(f"must add at least one server, got {count}")
        new_ids = list(range(self.n_servers, self.n_servers + count))
        for server in new_ids:
            self._server_periods.append([])
            self._server_keys.append([])
            self._status.append("active")
            self.n_servers += 1
            self._add_period(IdlePeriod(server=server, st=self.now, et=INF, uid=self._next_uid))
            self._next_uid += 1
        return new_ids

    def drain(self, server: int) -> bool:
        """Stop ``server`` from admitting new periods; keep its commitments.

        Unindexes every one of the server's idle periods from the derived
        indexes (slot trees, tail index) so searches stop offering it,
        while the authoritative list — physical idleness — is untouched
        and existing reservations are honored to the end.
        Idempotent on an already-draining server (returns ``False``);
        raises :class:`ValueError` for a removed server.
        """
        self._check_server(server)
        if self._status[server] == "draining":
            return False
        if self._status[server] == "removed":
            raise ValueError(f"server {server} was removed from the pool")
        # unindex while the status still reads active (the unindex path
        # skips non-active servers), then flip
        for period in self._server_periods[server]:
            self._unindex_period(period)
        self._status[server] = "draining"
        return True

    def remove(self, server: int) -> bool:
        """Retire a drained server; only legal once draining *and* drained.

        The server keeps its positional id forever with an empty period
        list.  Idempotent on an already-removed server (returns
        ``False``); raises :class:`ValueError` when the server is still
        active or still holds a commitment after ``now``.
        """
        self._check_server(server)
        if self._status[server] == "removed":
            return False
        if self._status[server] == "active":
            raise ValueError(f"server {server} must be drained before removal")
        if not self.is_drained(server):
            trailing = self._server_periods[server][-1]
            raise ValueError(
                f"server {server} still holds commitments until {trailing.st} "
                f"(now={self.now})"
            )
        # periods left every derived index at drain time; dropping the
        # authoritative list is all that remains
        self._server_periods[server].clear()
        self._server_keys[server].clear()
        self._status[server] = "removed"
        return True

    # ------------------------------------------------------------------
    # queries (Phase 1 + Phase 2, tree and tail combined)
    # ------------------------------------------------------------------

    def _tail_candidates(self, sr: float) -> int:
        """Unbounded periods with ``st <= sr`` (all feasible for any window)."""
        count = bisect_right(self._inf_keys, (sr, _UID_HIGH))
        self.counter.add("secondary_probe", max(1, len(self._inf_keys).bit_length()))
        return count

    def find_feasible(self, sr: float, er: float, nr: int) -> list[IdlePeriod] | None:
        """Feasible idle periods for ``[sr, er)`` × ``nr`` servers, or ``None``.

        Pure query — nothing is committed.  Bounded periods are preferred
        (earliest-ending first), then trailing periods (latest-starting
        first), yielding best-fit-style packing.
        """
        q = self.slot_of(sr)
        if not self._base_slot <= q < self._base_slot + self.q_slots:
            return None
        tree = self._trees.get(q, self._unwritten)
        count, marks = tree.phase1(sr)
        tail_count = self._tail_candidates(sr)
        if count + tail_count < nr:
            return None  # Phase 1 verdict: not enough candidates
        chosen = tree.phase2(marks, er, nr, partial=True) or []
        if len(chosen) >= nr:
            return chosen[:nr]
        need = nr - len(chosen)
        if tail_count < need:
            return None  # Phase 2 verdict: not enough feasible periods
        tail = self._inf_periods[tail_count - need : tail_count]
        tail.reverse()  # latest-starting trailing periods first
        self.counter.add("retrieve", need)
        return chosen + tail

    def skip_infeasible(
        self,
        base: float,
        delta_t: float,
        k: int,
        k_end: int,
        latest: float,
        lr: float,
        nr: int,
    ) -> int:
        """First index ``>= k`` of the ladder ``base + k * delta_t`` whose
        start is *not provably infeasible* for ``lr`` × ``nr`` (``nr >= 1``).

        A start ``s`` in slot ``q`` is skipped iff fewer than ``nr``
        trailing periods have begun by ``s`` **and** no period in slot
        ``q``'s tree ends at or after ``s + lr``.  That is an
        infeasibility certificate: with no tree period passing the
        Phase-2 test, :meth:`find_feasible` could only draw on the tail
        index, which holds too few candidates — it would return ``None``.
        Both tests are O(1): the ``nr``-th smallest trailing start is
        read once (the ladder only moves forward, so once it has begun
        nothing further can be skipped) and each point reads one
        :meth:`~repro.core.slot_tree.TwoDimTree.max_end`.

        The walk stops — returning that index unexamined — at ``k_end``,
        at the first start past ``latest`` and at the first start outside
        the horizon, so the caller's exhaustion, deadline and horizon
        exits fire at the index they always did.  Pure query.
        """
        tail = self._inf_keys
        # from this start on the tail index alone can host the request
        tail_from = tail[nr - 1][0] if 0 < nr <= len(tail) else INF
        trees, unwritten = self._trees, self._unwritten
        first, end = self._base_slot, self._base_slot + self.q_slots
        checks = 0
        while k < k_end:
            s = base + k * delta_t
            if s > latest or s >= tail_from:
                break
            q = self.slot_of(s)
            if not first <= q < end:
                break  # outside the horizon
            checks += 1
            if trees.get(q, unwritten).max_end() >= s + lr:
                break
            k += 1
        if checks:
            # each certificate reads the root's secondary index once
            self.counter.add("secondary_probe", checks)
        return k

    def range_search(self, ta: float, tb: float) -> list[IdlePeriod]:
        """Every idle period covering the whole window ``[ta, tb)``.

        The paper's range-search feature: users inspect availability and
        commit later via :meth:`allocate`.
        """
        q = self.slot_of(ta)
        if not self._base_slot <= q < self._base_slot + self.q_slots:
            return []
        found = self._trees.get(q, self._unwritten).range_search(ta, tb)
        found.extend(self._inf_periods[: self._tail_candidates(ta)])
        return found

    def idle_periods(self, server: int) -> list[IdlePeriod]:
        """A copy of the authoritative idle-period list for one server."""
        return list(self._server_periods[server])

    # ------------------------------------------------------------------
    # serializable state (snapshot/restore support)
    # ------------------------------------------------------------------

    def export_state(self) -> dict[str, object]:
        """The calendar's authoritative state as JSON-serializable data.

        Only the *authoritative* per-server idle-period lists are
        exported; every derived index (slot trees, tail index) is
        rebuilt by :meth:`from_state`.  ``math.inf`` ending
        times serialize as ``None`` (JSON has no ``Infinity``).  Period
        ``uid``\\ s ride along because uid order is the slot trees'
        tie-break among equal keys — restoring them keeps a restored
        calendar's selection order bit-identical to the original's — and
        so does ``next_uid``, the counter, so the periods a restored
        calendar creates are numbered as the original's would have been.

        The export is deterministic: periods appear in their sorted
        per-server order, so ``export → restore → export`` round-trips
        byte-identically once serialized with sorted keys.
        """
        return {
            "n_servers": self.n_servers,
            "tau": self.tau,
            "q_slots": self.q_slots,
            "now": self.now,
            "next_uid": self._next_uid,
            "pool": list(self._status),
            "periods": [
                [[p.st, None if p.et == INF else p.et, p.uid] for p in periods]
                for periods in self._server_periods
            ],
        }

    @staticmethod
    def validate_pool_state(state: dict[str, object]) -> list[str]:
        """Check the ``pool`` section of an exported state, returning it.

        A missing section is the pre-elastic format and reads as an
        all-active pool; a *present but malformed* one (wrong length,
        unknown state, a removed server still holding periods) is a hard
        :class:`ValueError` — never a silently-empty pool.
        """
        n_servers = int(state["n_servers"])  # type: ignore[arg-type]
        pool = state.get("pool")
        if pool is None:
            return ["active"] * n_servers
        if not isinstance(pool, list) or len(pool) != n_servers:
            raise ValueError(
                f"calendar pool section lists "
                f"{len(pool) if isinstance(pool, list) else '?'} servers, "
                f"header says {n_servers}"
            )
        for server, status in enumerate(pool):
            if status not in POOL_STATES:
                raise ValueError(
                    f"calendar pool section has unknown state {status!r} "
                    f"for server {server}"
                )
        periods = state.get("periods")
        if isinstance(periods, list) and len(periods) == n_servers:
            for server, status in enumerate(pool):
                if status == "removed" and periods[server]:
                    raise ValueError(
                        f"calendar pool section marks server {server} removed "
                        f"but it still lists {len(periods[server])} period(s)"
                    )
        return [str(status) for status in pool]

    @classmethod
    def from_state(
        cls, state: dict[str, object], counter: OpCounter = NULL_COUNTER
    ) -> "AvailabilityCalendar":
        """Rebuild a calendar from :meth:`export_state` output.

        The restored instance is behaviorally identical to the exported
        one: same clock, same horizon geometry, same idle periods *with
        their original uids* (the tie-break order inside the trees), the
        same uid counter, and every slot-tree/tail index built straight
        into an empty calendar — no tree is told to remove one holder of
        a uid and insert another.  No calendar exports a bounded period
        ending beyond the horizon (see the module docstring), a uid twice
        or a ``next_uid`` not above every persisted uid, so each is
        refused (``ValueError``).  A state without ``next_uid`` (written
        before calendars exported it) counts on from the largest uid + 1;
        an ``indexing`` field (written while calendars had a second,
        paper-literal layout) is ignored, because the authoritative
        periods do not depend on the layout.
        """
        n_servers = int(state["n_servers"])  # type: ignore[arg-type]
        periods = state["periods"]
        if not isinstance(periods, list) or len(periods) != n_servers:
            raise ValueError(
                f"calendar state lists {len(periods) if isinstance(periods, list) else '?'} "
                f"servers, header says {n_servers}"
            )
        calendar = cls.__new__(cls)
        calendar._build_empty(
            n_servers,
            float(state["tau"]),  # type: ignore[arg-type]
            int(state["q_slots"]),  # type: ignore[arg-type]
            float(state["now"]),  # type: ignore[arg-type]
            counter,
        )
        # register the recorded periods through the normal indexing path
        # — with the pool states applied first, so draining/removed
        # servers' periods stay out of the derived indexes
        calendar._status = cls.validate_pool_state(state)
        uids: set[int] = set()
        for server, server_periods in enumerate(periods):
            last_end = -INF
            for st_et_uid in server_periods:
                st = float(st_et_uid[0])
                et = INF if st_et_uid[1] is None else float(st_et_uid[1])
                uid = int(st_et_uid[2])
                if uid in uids:
                    raise ValueError(f"calendar state lists period uid {uid} twice")
                uids.add(uid)
                if st < last_end:
                    raise ValueError(
                        f"calendar state for server {server} is not sorted/disjoint "
                        f"around [{st}, {et})"
                    )
                if et != INF and et > calendar.horizon_end:
                    raise ValueError(
                        f"calendar state for server {server} holds a bounded period "
                        f"[{st}, {et}) ending beyond the horizon end {calendar.horizon_end}"
                    )
                last_end = et
                calendar._add_period(IdlePeriod(server=server, st=st, et=et, uid=uid))
        floor = max(uids, default=-1) + 1
        next_uid = int(state.get("next_uid", floor))  # type: ignore[call-overload]
        if next_uid < floor:
            raise ValueError(
                f"calendar state's next_uid {next_uid} is not above every "
                f"persisted uid (the largest is {floor - 1})"
            )
        calendar._next_uid = next_uid
        return calendar

    # ------------------------------------------------------------------
    # verification (test support)
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Cross-check per-server lists, slot trees and tail index.

        Delegates to :func:`repro.analysis.audit.audit_calendar`, which
        audits every slot tree plus the cross-structure invariants (one
        stable check ID each — see ``docs/analysis.md``).  The raised
        :class:`~repro.analysis.audit.AuditError` subclasses
        ``AssertionError``, preserving this method's contract.
        """
        from ..analysis.audit import AuditError, audit_calendar

        findings = audit_calendar(self)
        if findings:
            raise AuditError(findings)
