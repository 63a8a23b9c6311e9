"""The invariant that replaced the pending set: the horizon is arithmetic.

No bounded idle period ever ends beyond ``horizon_end`` — a period ends
where a reservation starts, a reservation starts inside the horizon, and
the horizon's end only grows — so a slot that rolls in has nothing
waiting for it and ``advance`` creates nothing.  Driven through the
*scheduler* (the only source of reservations in production), in both
indexing modes; the one way to break it by hand, ``allocate`` with a
start beyond the horizon, is refused.
"""

from __future__ import annotations

import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.calendar import AvailabilityCalendar
from repro.core.opcount import NULL_COUNTER
from repro.core.slot_tree import TwoDimTree
from repro.core.types import INF, Request
from repro.errors import ConflictError, ReproError
from repro.facade import CoAllocationScheduler

N = 4
TAU = 10.0
Q = 6


class RecordingTree(TwoDimTree):
    """A slot tree that counts the notes written to it."""

    __slots__ = ("writes",)

    def __init__(self, counter=NULL_COUNTER):
        super().__init__(counter)
        self.writes = 0

    def insert(self, period):
        self.writes += 1
        super().insert(period)

    def remove(self, period):
        self.writes += 1
        super().remove(period)


def make_scheduler(indexing: str) -> CoAllocationScheduler:
    scheduler = CoAllocationScheduler(n_servers=N, tau=TAU, q_slots=Q, r_max=Q)
    if indexing == "dense":
        # the facade only builds tail calendars; dense is the reference
        dense = AvailabilityCalendar(N, TAU, Q, counter=scheduler.counter, indexing="dense")
        scheduler.calendar = scheduler.allocator.calendar = dense
    return scheduler


@st.composite
def histories(draw):
    ops = []
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(
            st.sampled_from(
                ["reserve", "reserve", "reserve", "cancel", "release_early",
                 "advance", "jump", "add_servers", "drain", "remove"]
            )
        )
        if kind == "reserve":
            lead = draw(st.sampled_from([0.0, 0.0, 7.0, TAU, 3 * TAU, (Q - 1) * TAU + 7.0]))
            # reservations may end far beyond the horizon; they cannot start there
            lr = draw(st.sampled_from([1.0, 4.0, TAU, 2.5 * TAU, Q * TAU, 3 * Q * TAU]))
            ops.append((kind, lead, lr, draw(st.integers(1, N + 1))))
        elif kind == "advance":
            ops.append((kind, draw(st.sampled_from([0.0, 1.0, 4.0, 9.5, TAU])), 0, 0))
        elif kind == "jump":
            ops.append((kind, draw(st.integers(1, 3 * Q + 1)), 0, 0))
        elif kind == "add_servers":
            ops.append((kind, draw(st.integers(1, 2)), 0, 0))
        else:
            ops.append((kind, draw(st.integers(0, 10**6)), draw(st.floats(0.0, 1.0)), 0))
    return ops


def check_invariant(cal: AvailabilityCalendar, previous_keys: set[int]) -> None:
    cal.validate()  # RA112: every period sits in exactly its slots' trees; RA113
    first, end = cal._base_slot, cal._base_slot + cal.q_slots
    for server in range(cal.n_servers):
        for period in cal.idle_periods(server):
            assert period.et == INF or period.et <= cal.horizon_end, period
    assert all(first <= q < end for q in cal._trees)
    # a tree leaves the calendar only by expiring
    assert {q for q in previous_keys if q >= first} <= set(cal._trees)
    if cal.dense:
        assert set(cal._trees) == set(range(first, end))
    else:
        # a slot has a tree iff something was written to it while active
        assert all(tree.writes > 0 for tree in cal._trees.values())
    assert cal._unwritten.writes == 0


class TestHorizonInvariant:
    @pytest.mark.parametrize("indexing", ["tail", "dense"])
    @given(history=histories())
    @settings(max_examples=120, deadline=None)
    def test_no_bounded_period_outlives_the_horizon(self, indexing, history):
        with mock.patch("repro.core.calendar.TwoDimTree", RecordingTree):
            scheduler = make_scheduler(indexing)
            cal = scheduler.calendar
            assert len(cal._trees) == (Q if indexing == "dense" else 0)
            live: list[int] = []
            rid = 0
            for kind, a, b, c in history:
                keys = set(cal._trees)
                try:
                    if kind == "reserve":
                        rid += 1
                        request = Request(qr=cal.now, sr=cal.now + a, lr=b, nr=c, rid=rid)
                        if scheduler.schedule_detailed(request).allocation is not None:
                            live.append(rid)
                    elif kind == "cancel" and live:
                        scheduler.cancel(live.pop(int(a) % len(live)))
                    elif kind == "release_early" and live:
                        chosen = live.pop(int(a) % len(live))
                        allocation = scheduler._allocations[chosen]
                        lo = max(allocation.start, cal.now)
                        if lo < allocation.end:
                            scheduler.release_early(chosen, lo + b * (allocation.end - lo) / 2)
                    elif kind == "advance":
                        scheduler.advance(cal.now + a)
                    elif kind == "jump":
                        scheduler.advance(cal.horizon_start + a * TAU)
                    elif kind == "add_servers":
                        scheduler.add_servers(int(a))
                    elif kind == "drain":
                        scheduler.drain(int(a) % cal.n_servers)
                    elif kind == "remove":
                        scheduler.remove(int(a) % cal.n_servers)
                except ReproError:
                    pass  # refusals (CONFLICT, MALFORMED) change nothing
                check_invariant(cal, keys)


class TestTheGuard:
    """``allocate`` is the one door a start beyond the horizon could use."""

    @pytest.mark.parametrize("indexing", ["tail", "dense"])
    @pytest.mark.parametrize("start", [60.0, 60.5, 1e9])
    def test_allocate_beyond_the_horizon_raises_and_changes_nothing(self, indexing, start):
        cal = AvailabilityCalendar(N, TAU, Q, indexing=indexing)  # horizon [0, 60)
        cal.allocate(cal.find_feasible(20.0, 30.0, 2), 20.0, 30.0)
        before = json.dumps(cal.export_state(), sort_keys=True)
        trees = {q: sorted(t._ins) for q, t in cal._trees.items()}
        with pytest.raises(ValueError, match="beyond the schedulable horizon"):
            cal.allocate([cal.idle_periods(0)[-1]], start, start + 5.0)
        assert json.dumps(cal.export_state(), sort_keys=True) == before
        assert {q: sorted(t._ins) for q, t in cal._trees.items()} == trees
        cal.validate()
        # the last instant inside the horizon is still served
        cal.allocate([cal.idle_periods(0)[-1]], 59.5, 1e6)
        cal.validate()

    def test_commit_maps_it_to_a_conflict(self):
        scheduler = CoAllocationScheduler(n_servers=N, tau=TAU, q_slots=Q)
        periods = scheduler.range_search(10.0, 200.0)
        assert len(periods) == N
        with pytest.raises(ConflictError, match="beyond the schedulable horizon"):
            scheduler.commit(periods[:2], 60.0, 200.0, rid=1)
        assert scheduler.commit(periods[:2], 59.0, 200.0, rid=1).servers

    def test_release_may_not_bound_an_idle_period_beyond_the_horizon(self):
        cal = AvailabilityCalendar(1, TAU, Q)
        cal.allocate([cal.idle_periods(0)[-1]], 50.0, 500.0)
        with pytest.raises(ValueError, match="beyond the horizon"):
            cal.release(0, 100.0, 200.0)  # the middle of the reservation
        assert [(p.st, p.et) for p in cal.idle_periods(0)] == [(0.0, 50.0), (500.0, INF)]
        cal.release(0, 100.0, 500.0)  # its tail: merges into the trailing period
        assert [(p.st, p.et) for p in cal.idle_periods(0)] == [(0.0, 50.0), (100.0, INF)]
        cal.validate()

    def test_from_state_refuses_a_period_ending_beyond_the_horizon(self):
        cal = AvailabilityCalendar(2, TAU, Q)
        cal.allocate(cal.find_feasible(55.0, 300.0, 1), 55.0, 300.0)
        state = cal.export_state()
        AvailabilityCalendar.from_state(json.loads(json.dumps(state))).validate()
        server = next(s for s, periods in enumerate(state["periods"]) if len(periods) == 2)
        state["periods"][server][0][1] = 61.0  # hand-edited: [0, 55) -> [0, 61)
        with pytest.raises(ValueError, match="ending beyond the horizon"):
            AvailabilityCalendar.from_state(state)
