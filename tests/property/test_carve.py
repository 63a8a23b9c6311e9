"""``allocate`` carves a request in one pass (DESIGN.md §15).

The pass splices each server's arrays, takes each trailing period out of
the tail index with one bisect, computes each remnant's slot range once,
and adds the new trailing remnants to the tail index as one sorted block.
These tests hold it to what the per-period call chain it replaced
guaranteed, under random histories of reserves,
range-search commits, cancels, clock moves, drains and snapshot restores:

* the calendar audits clean after every ``allocate``;
* remnant uids are drawn left then right, period by period (the Phase-2
  tie-break), above every stored uid — across snapshot restores too;
* a handle taken before its server was drained is carved in the
  authoritative list only;
* carving a *bounded* period (0.1 % of ``wide-tcp`` carves) notes
  removals and inserts in exactly the slots each period overlaps;
* so does carving a period that starts on or next to the horizon start,
  where the first slot is one float comparison rather than ``slot_of``;
* the operation counts of a fixed history are the call chain's, and its
  final state is the validating constructors'.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.audit import audit_calendar
from repro.core.calendar import AvailabilityCalendar
from repro.core.opcount import NULL_COUNTER
from repro.core.slot_tree import TwoDimTree
from repro.core.types import INF, Request
from repro.facade import CoAllocationScheduler

from .test_horizon_invariant import N, Q, TAU, make_scheduler


def watch(cal: AvailabilityCalendar) -> None:
    """Check every ``cal.allocate``: a clean audit, and remnant uids drawn
    from the calendar's counter left then right, period by period, above
    every stored uid."""
    original = cal.allocate

    def allocate(periods, start, end):
        stored = max((p.uid for ps in cal._server_periods for p in ps), default=-1)
        first = cal._next_uid
        assert first > stored
        servers = original(periods, start, end)
        assert audit_calendar(cal) == []
        uids = []
        for period in periods:
            remnants = {(p.st, p.et): p.uid for p in cal._server_periods[period.server]}
            if period.st < start:
                uids.append(remnants[(period.st, start)])
            if end < period.et:
                uids.append(remnants[(end, period.et)])
        assert uids == list(range(first, first + len(uids)))
        assert cal._next_uid == first + len(uids)
        return servers

    cal.allocate = allocate  # type: ignore[method-assign]


def derived(cal: AvailabilityCalendar):
    """Everything the derived indexes hold, buffered or stored."""
    trees = {
        q: (dict(t._ins), dict(t._rem), list(t._leaves))
        for q, t in cal._trees.items()
    }
    return trees, list(cal._inf_keys), list(cal._inf_periods)


def restored(scheduler: CoAllocationScheduler) -> CoAllocationScheduler:
    return CoAllocationScheduler.from_state(json.loads(json.dumps(scheduler.export_state())))


@st.composite
def histories(draw):
    ops = []
    for _ in range(draw(st.integers(1, 30))):
        kind = draw(
            st.sampled_from(
                ["reserve", "reserve", "reserve", "commit", "cancel", "advance",
                 "drain", "drained_handle", "restore"]
            )
        )
        if kind == "reserve":
            lead = draw(st.sampled_from([0.0, 7.0, TAU, 3 * TAU, (Q - 1) * TAU + 7.0]))
            lr = draw(st.sampled_from([1.0, 4.0, TAU, 2.5 * TAU, Q * TAU]))
            ops.append((kind, lead, lr, draw(st.integers(1, N))))
        elif kind in ("commit", "drained_handle"):
            lead = draw(st.sampled_from([0.0, 3.0, 2 * TAU, (Q - 1) * TAU]))
            lr = draw(st.sampled_from([2.0, TAU, 4 * TAU]))
            ops.append((kind, lead, lr, draw(st.integers(0, 10**6))))
        elif kind == "advance":
            ops.append((kind, draw(st.sampled_from([1.0, 4.0, TAU, 3 * TAU])), 0, 0))
        else:
            ops.append((kind, draw(st.integers(0, 10**6)), 0, 0))
    return ops


class TestOnePassCarve:
    @given(history=histories())
    @settings(max_examples=100, deadline=None)
    def test_random_histories(self, history):
        scheduler = make_scheduler()
        watch(scheduler.calendar)
        live: list[int] = []
        rid = 0
        for kind, a, b, c in history:
            cal = scheduler.calendar
            rid += 1
            if kind == "reserve":
                request = Request(qr=cal.now, sr=cal.now + a, lr=b, nr=c, rid=rid)
                if scheduler.schedule(request) is not None:
                    live.append(rid)
            elif kind == "commit":
                found = scheduler.range_search(cal.now + a, cal.now + a + b)
                chosen = found[c % 3 :: 2]  # any subset a caller might pick
                if chosen:
                    scheduler.commit(chosen, cal.now + a, cal.now + a + b, rid=rid)
                    live.append(rid)
            elif kind == "drained_handle":
                ta, tb = cal.now + a, cal.now + a + b
                found = scheduler.range_search(ta, tb)
                if found:
                    handle = found[c % len(found)]
                    scheduler.drain(handle.server)
                    before = derived(cal)
                    scheduler.commit([handle], ta, tb, rid=rid)
                    live.append(rid)
                    assert derived(cal) == before
                    assert all(p is not handle for p in cal.idle_periods(handle.server))
            elif kind == "cancel" and live:
                scheduler.cancel(live.pop(int(a) % len(live)))
            elif kind == "advance":
                scheduler.advance(cal.now + a)
            elif kind == "drain":
                scheduler.drain(int(a) % cal.n_servers)
            elif kind == "restore":
                scheduler = restored(scheduler)
                assert audit_calendar(scheduler.calendar) == []
                watch(scheduler.calendar)


def two_server_state(**changes):
    """A hand-written two-server state with uids 1..3 and counter 5,
    edited by ``changes``."""
    state = {
        "n_servers": 2, "tau": TAU, "q_slots": Q, "now": 0.0,
        "next_uid": 5, "pool": ["active", "active"],
        "periods": [[[0.0, 5.0, 2], [15.0, None, 3]], [[0.0, None, 1]]],
    }
    return {**state, **changes}


#: the ``indexing`` field calendars wrote while they had a second,
#: paper-literal layout; a restore ignores it, so a state from before
#: restores whichever layout it names
LEGACY_LAYOUTS = ["tail", "dense"]


class TestRestoredUids:
    """``from_state`` takes the uids and the counter as recorded, and
    refuses a state no calendar could have exported."""

    @pytest.mark.parametrize("indexing", LEGACY_LAYOUTS)
    def test_a_uid_listed_twice_is_refused(self, indexing):
        twice = [[[0.0, 5.0, 2], [15.0, None, 3]], [[0.0, None, 2]]]
        with pytest.raises(ValueError, match="uid 2 twice"):
            AvailabilityCalendar.from_state(two_server_state(periods=twice, indexing=indexing))

    @pytest.mark.parametrize("next_uid", [3, 0, -1])
    def test_a_counter_not_above_every_persisted_uid_is_refused(self, next_uid):
        with pytest.raises(ValueError, match="not above every persisted uid"):
            AvailabilityCalendar.from_state(two_server_state(next_uid=next_uid))

    @pytest.mark.parametrize("indexing", LEGACY_LAYOUTS)
    def test_the_recorded_counter_is_kept(self, indexing):
        cal = AvailabilityCalendar.from_state(two_server_state(indexing=indexing))
        cal.validate()
        assert cal.export_state() == two_server_state()
        (trailing,) = cal.idle_periods(1)
        cal.allocate([trailing], 2.0, 4.0)
        assert [p.uid for p in cal.idle_periods(1)] == [5, 6]

    def test_a_state_without_a_counter_counts_on_from_the_largest_uid(self):
        state = two_server_state()
        del state["next_uid"]
        cal = AvailabilityCalendar.from_state(state)
        assert cal.export_state()["next_uid"] == 4
        cal.release(0, 5.0, 15.0)
        assert [p.uid for p in cal.idle_periods(0)] == [4]

    def test_a_restored_calendar_numbers_on_as_the_original_would(self):
        original = make_scheduler()
        for rid in range(3):
            original.schedule(Request(qr=0.0, sr=3.0 * rid, lr=TAU, nr=2, rid=rid))
        clone = restored(original)
        for scheduler in (original, clone):
            scheduler.cancel(1)
            scheduler.add_servers(1)
            scheduler.schedule(Request(qr=0.0, sr=1.0, lr=2.0, nr=N, rid=9))
        assert clone.export_state() == original.export_state()


class NoteTree(TwoDimTree):
    """A slot tree that records the notes written to it."""

    __slots__ = ("notes",)

    def __init__(self, counter=NULL_COUNTER):
        super().__init__(counter)
        self.notes: list[tuple[str, int]] = []

    def insert(self, period):
        self.notes.append(("insert", period.uid))
        super().insert(period)

    def insert_many(self, periods):
        # one note per period, as if each had been inserted on its own
        for uid, period in periods.items():
            assert uid == period.uid, f"period uid={period.uid} noted under uid={uid}"
            self.notes.append(("insert", uid))
        super().insert_many(periods)

    def remove(self, period):
        self.notes.append(("remove", period.uid))
        super().remove(period)


def overlapped(cal: AvailabilityCalendar, st: float, et: float) -> set[int]:
    """Active slots whose span meets ``[st, et)``, by brute force."""
    first = cal._base_slot
    return {
        q
        for q in range(first, first + cal.q_slots)
        if st < (q + 1) * cal.tau and et > q * cal.tau
    }


def carve_notes(cal: AvailabilityCalendar, period, start: float, end: float):
    """Carve ``[start, end)`` out of ``period`` on a calendar of
    ``NoteTree``\\ s; return the notes written and the notes expected: the
    period's removal, then each remnant's insert, in exactly the active
    slots each overlaps (unbounded periods live in the tail index, in no
    tree)."""
    before = cal.idle_periods(period.server)
    for tree in cal._trees.values():
        tree.notes.clear()
    cal.allocate([period], start, end)
    notes = {q: t.notes for q, t in cal._trees.items() if t.notes}
    remnants = [
        p for p in cal.idle_periods(period.server) if all(p is not old for old in before)
    ]
    expected: dict[int, list[tuple[str, int]]] = {}
    for kind, p in [("remove", period)] + [("insert", p) for p in remnants]:
        if p.et == INF:
            continue
        for q in sorted(overlapped(cal, p.st, p.et)):
            expected.setdefault(q, []).append((kind, p.uid))
    return notes, expected


@st.composite
def bounded_carves(draw):
    """A bounded idle period ``[a, b)`` on server 0, a clock time before
    ``b``, and a window ``[s, e)`` inside the period — on a grid of τ/4,
    with an integral and a fractional τ, so ends land on slot boundaries."""
    tau = draw(st.sampled_from([10.0, 0.3]))
    cells = 4 * Q
    b = draw(st.integers(1, cells - 1))
    a = draw(st.integers(0, b - 1))
    s = draw(st.integers(a, b - 1))
    e = draw(st.integers(s + 1, b))
    now = draw(st.integers(0, b - 1))
    return tau, [k * tau / 4 for k in (a, b, s, e, now)]


class TestBoundedCarve:
    @given(case=bounded_carves())
    @settings(max_examples=150, deadline=None)
    def test_notes_land_in_exactly_the_overlapped_slots(self, case):
        tau, (a, b, s, e, now) = case
        with mock.patch("repro.core.calendar.TwoDimTree", NoteTree):
            cal = AvailabilityCalendar(2, tau, Q)
            cal.allocate(cal.idle_periods(0), b, b + tau)
            if a > 0:
                cal.allocate(cal.idle_periods(0)[:1], 0.0, a)
            cal.advance(now)
            (period,) = (p for p in cal.idle_periods(0) if p.et == b)
            assert period.st == a
            notes, expected = carve_notes(cal, period, s, e)
        assert notes == expected
        cal.validate()


@st.composite
def edge_carves(draw):
    """A period on server 0 starting on, just either side of, or on the
    τ/4 grid around the horizon start ``base·τ`` (or on or just before
    the next slot boundary) at τ = 0.3 — trailing, or bounded by a later
    reservation — and a window carved out of it."""
    return {
        "now_cell": draw(st.integers(4, 20)),  # clock on the τ/4 grid: base 1..5
        "where": draw(st.sampled_from(["below", "on", "above", "next", "before_next", "grid"])),
        # grid offset of the start, in τ/4: across base·τ and the next boundary
        "k": draw(st.integers(-3, 7)),
        "lead": draw(st.integers(0, 6)),  # window start after the period's, in τ/4
        "length": draw(st.integers(1, 6)),
        "bounded_after": draw(st.none() | st.integers(0, 3)),  # gap after the window
    }


class TestFirstSlotAtTheHorizonStart:
    """``allocate`` takes a period's first slot as ``base`` when it starts
    before ``base·τ`` and as ``slot_of(st)`` otherwise — one float
    comparison in place of ``max(slot_of(st), base)``, exact because
    ``slot_of`` brackets ``st`` between the same monotone products."""

    @given(case=edge_carves())
    @settings(max_examples=200, deadline=None)
    def test_notes_land_in_exactly_the_overlapped_slots(self, case):
        tau = 0.3
        grid = tau / 4
        with mock.patch("repro.core.calendar.TwoDimTree", NoteTree):
            cal = AvailabilityCalendar(2, tau, Q)
            cal.advance(case["now_cell"] * grid)
            edge = cal._base_slot * tau
            st0 = {
                "below": math.nextafter(edge, -INF),
                "on": edge,
                "above": math.nextafter(edge, INF),
                # the next boundary, where ``slot_of`` alone decides
                "next": (cal._base_slot + 1) * tau,
                "before_next": math.nextafter((cal._base_slot + 1) * tau, -INF),
                "grid": edge + case["k"] * grid,
            }[case["where"]]
            cal.allocate(cal.idle_periods(0), 0.0, st0)  # server 0 idle from st0 on
            start = st0 + case["lead"] * grid
            end = start + case["length"] * grid
            if case["bounded_after"] is not None:
                booked = end + case["bounded_after"] * grid
                cal.allocate(cal.idle_periods(0)[-1:], booked, booked + tau)
            (period,) = (p for p in cal.idle_periods(0) if p.st == st0)
            notes, expected = carve_notes(cal, period, start, end)
        assert notes == expected
        cal.validate()


def state_digest(cal: AvailabilityCalendar) -> str:
    """A digest of ``export_state()``: every period, every uid and the uid
    counter must match byte for byte."""
    return hashlib.sha256(json.dumps(cal.export_state(), sort_keys=True).encode()).hexdigest()[:16]


class TestFixedHistoryCounts:
    """Operation counts of a fixed 200-op history, pinned from the
    per-period call chain the one-pass carve replaced: tail-index inserts
    and removals are counted in one ``add`` per call now, and must total
    the same.  A digest of its final state, pinned from the validating
    constructors the trusted ones replaced: the remnants must come out
    with the same bounds and the same uids.  The digest was re-pinned
    when the calendar took over uid numbering (the earlier pin is what
    this export gives with ``next_uid`` dropped and every uid shifted by
    the one draw the process-global counter had made first), and again
    when the export lost its ``"indexing": "tail"`` field with the dense
    layout (the earlier pin, 579808d37d4524d8, is this export with that
    field added back)."""

    PINNED = {
        "attempt": 358, "insert": 1100, "mark": 347, "node_visit": 434,
        "rebuild": 1476, "remove": 534, "retrieve": 412, "secondary_probe": 1376,
    }

    STATE = "b231bbfffe6f79c9"

    def test_counts_match_the_call_chain(self):
        rng = random.Random(26)
        scheduler = CoAllocationScheduler(n_servers=16, tau=TAU, q_slots=12, r_max=6)
        cal = scheduler.calendar
        live: list[int] = []
        for rid in range(200):
            roll = rng.random()
            if roll < 0.6:
                request = Request(
                    qr=cal.now,
                    sr=cal.now + rng.choice([0.0, 5.0, TAU, 4 * TAU, 11 * TAU]),
                    lr=rng.choice([2.0, TAU, 3 * TAU, 12 * TAU]),
                    nr=rng.randint(1, 16),
                    rid=rid,
                )
                if scheduler.schedule(request) is not None:
                    live.append(rid)
            elif roll < 0.8 and live:
                scheduler.cancel(live.pop(rng.randrange(len(live))))
            else:
                scheduler.advance(cal.now + rng.choice([1.0, TAU, 2.5 * TAU]))
        cal.validate()
        assert scheduler.counter.snapshot() == self.PINNED
        assert state_digest(cal) == self.STATE
