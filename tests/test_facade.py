"""Unit tests for the public CoAllocationScheduler facade."""

import gc
import hashlib
import json
import random

import pytest

from repro import CoAllocationScheduler, Request


def make(n=8, tau=10.0, q=24, **kw):
    return CoAllocationScheduler(n_servers=n, tau=tau, q_slots=q, **kw)


class TestDefaults:
    def test_paper_defaults(self):
        sched = make(q=24)
        assert sched.allocator.delta_t == 10.0  # tau
        assert sched.allocator.r_max == 12  # Q/2

    def test_overrides(self):
        sched = make(delta_t=5.0, r_max=3)
        assert sched.allocator.delta_t == 5.0
        assert sched.allocator.r_max == 3

    def test_n_servers(self):
        assert make(n=8).n_servers == 8


class TestScheduleAndCancel:
    def test_schedule_and_cancel_roundtrip(self):
        sched = make(n=1)
        a = sched.schedule(Request(qr=0.0, sr=0.0, lr=100.0, nr=1, rid=1))
        assert a is not None
        assert sched.schedule(Request(qr=0.0, sr=0.0, lr=100.0, nr=1, rid=2)) is None or True
        sched.cancel(1)
        b = sched.schedule(Request(qr=0.0, sr=0.0, lr=100.0, nr=1, rid=3))
        assert b is not None and b.start == 0.0

    def test_cancel_unknown_raises(self):
        with pytest.raises(KeyError):
            make().cancel(77)

    def test_cancel_running_allocation_frees_remainder(self):
        sched = make(n=1)
        sched.schedule(Request(qr=0.0, sr=0.0, lr=100.0, nr=1, rid=1))
        sched.advance(50.0)
        sched.cancel(1)  # only [50, 100) can come back
        a = sched.schedule(Request(qr=50.0, sr=50.0, lr=50.0, nr=1, rid=2))
        assert a is not None and a.start == 50.0

    def test_release_early_reclaims_tail(self):
        sched = make(n=1)
        sched.schedule(Request(qr=0.0, sr=0.0, lr=100.0, nr=1, rid=1))
        sched.advance(40.0)
        sched.release_early(1, at_time=40.0)
        a = sched.schedule(Request(qr=40.0, sr=40.0, lr=60.0, nr=1, rid=2))
        assert a is not None and a.start == 40.0

    def test_release_early_outside_window_raises(self):
        sched = make()
        sched.schedule(Request(qr=0.0, sr=0.0, lr=100.0, nr=1, rid=1))
        with pytest.raises(ValueError, match="outside"):
            sched.release_early(1, at_time=150.0)


class TestSuggestions:
    def test_suggestions_when_busy(self):
        sched = make(n=1)
        sched.schedule(Request(qr=0.0, sr=0.0, lr=35.0, nr=1, rid=1))
        suggestions = sched.suggest_alternatives(
            Request(qr=0.0, sr=0.0, lr=10.0, nr=1, rid=2), max_suggestions=2
        )
        assert suggestions == [40.0, 50.0]

    def test_suggestions_do_not_commit(self):
        sched = make()
        sched.suggest_alternatives(Request(qr=0.0, sr=0.0, lr=10.0, nr=8, rid=1))
        a = sched.schedule(Request(qr=0.0, sr=0.0, lr=10.0, nr=8, rid=2))
        assert a is not None

    def test_no_suggestions_when_impossible(self):
        sched = make(n=1)
        out = sched.suggest_alternatives(Request(qr=0.0, sr=0.0, lr=10.0, nr=5, rid=1))
        assert out == []

    def test_suggestions_stop_at_the_deadline(self):
        """Regression: the suggestion walk used to ignore ``latest_start``
        and offered starts ``schedule`` refuses with ``"deadline"``."""
        sched = make(n=1)
        sched.schedule(Request(qr=0.0, sr=0.0, lr=35.0, nr=1, rid=1))
        # latest admissible start is 65 - 10 = 55: 40 and 50 fit, 60 does not
        request = Request(qr=0.0, sr=0.0, lr=10.0, nr=1, rid=2, deadline=65.0)
        suggestions = sched.suggest_alternatives(request, max_suggestions=5)
        assert suggestions == [40.0, 50.0]
        assert all(s <= request.latest_start for s in suggestions)
        # a deadline no start can meet yields nothing, as schedule would
        tight = Request(qr=0.0, sr=0.0, lr=10.0, nr=1, rid=3, deadline=30.0)
        assert sched.suggest_alternatives(tight) == []
        assert sched.schedule_detailed(tight).reason == "deadline"

    def test_suggestions_are_the_starts_schedule_would_pick(self):
        sched = make(n=2)
        sched.schedule(Request(qr=0.0, sr=0.0, lr=35.0, nr=2, rid=1))
        sched.schedule(Request(qr=0.0, sr=50.0, lr=25.0, nr=1, rid=2))
        request = Request(qr=0.0, sr=0.0, lr=20.0, nr=2, rid=3, deadline=200.0)
        suggestions = sched.suggest_alternatives(request, max_suggestions=4)
        assert suggestions
        state = sched.export_state()
        # the first suggestion is where a clone grants the request itself …
        granted = CoAllocationScheduler.from_state(state).schedule(request)
        assert granted is not None and granted.start == suggestions[0]
        # … and each one is granted on its first attempt when asked for directly
        for start in suggestions:
            clone = CoAllocationScheduler.from_state(state)
            rigid = Request(qr=0.0, sr=start, lr=20.0, nr=2, rid=4, deadline=200.0)
            outcome = clone.schedule_detailed(rigid)
            assert outcome.allocation is not None
            assert (outcome.allocation.start, outcome.attempts) == (start, 1)


class TestUtilization:
    def test_utilization_window(self):
        sched = make(n=2)
        sched.schedule(Request(qr=0.0, sr=0.0, lr=60.0, nr=1, rid=1))
        assert sched.utilization(0.0, 60.0) == pytest.approx(0.5)
        assert sched.utilization(0.0, 120.0) == pytest.approx(0.25)

    def test_empty_window_raises(self):
        with pytest.raises(ValueError, match="empty"):
            make().utilization(5.0, 5.0)


class TestOpsCounter:
    def test_counter_accumulates(self):
        sched = make()
        before = sched.counter.total()
        sched.schedule(Request(qr=0.0, sr=0.0, lr=10.0, nr=4, rid=1))
        assert sched.counter.total() > before


class TestRefusedReleaseEarly:
    def test_a_refused_release_early_keeps_the_allocation(self):
        """The window is checked before the allocation is popped: a
        refused early release used to drop it, so a later ``cancel``
        raised ``NotFoundError`` and its servers stayed booked forever."""
        sched = make(n=1)
        sched.schedule(Request(qr=0.0, sr=0.0, lr=20.0, nr=1, rid=1))
        with pytest.raises(ValueError, match="outside"):
            sched.release_early(1, at_time=50.0)
        sched.cancel(1)
        a = sched.schedule(Request(qr=0.0, sr=0.0, lr=20.0, nr=1, rid=2))
        assert a is not None and a.start == 0.0


def run_fixed_history(sched: CoAllocationScheduler, seed: int = 33) -> CoAllocationScheduler:
    """Grants, cancels, early releases, clock moves and one snapshot
    restore, drawn from ``seed``; returns the restored scheduler."""
    rng = random.Random(seed)
    live: list[int] = []
    for rid in range(300):
        now = sched.calendar.now
        roll = rng.random()
        if rid == 150:
            sched = CoAllocationScheduler.from_state(json.loads(json.dumps(sched.export_state())))
        elif roll < 0.55:
            request = Request(
                qr=now,
                sr=now + rng.choice([0.0, 3.0, 10.0, 45.0]),
                lr=rng.choice([2.5, 10.0, 30.0, 80.0]),
                nr=rng.randint(1, 24),
                rid=rid,
            )
            if sched.schedule(request) is not None:
                live.append(rid)
        elif roll < 0.7 and live:
            sched.cancel(live.pop(rng.randrange(len(live))))
        elif roll < 0.85 and live:
            rid_live = live[rng.randrange(len(live))]
            allocation = sched._allocations[rid_live]
            if allocation.end > now:
                lo = max(allocation.start, now)
                sched.release_early(rid_live, lo + rng.random() * (allocation.end - lo))
                live.remove(rid_live)
        else:
            sched.advance(now + rng.choice([1.0, 10.0, 25.0]))
    return sched


class TestSnapshotBytes:
    """An allocation stores its window once and its servers as ints, and
    the snapshot still writes ``"reservations": [[server, start, end],
    ...]`` for each: the digest of a fixed history's export is pinned
    from when every allocation held one ``Reservation`` per server."""

    PINNED = "c047f4ce65caad84"

    def test_export_bytes_are_unchanged(self):
        sched = run_fixed_history(make(n=24, tau=10.0, q=16))
        exported = json.dumps(sched.export_state(), sort_keys=True)
        assert len(sched._allocations) > 10
        assert hashlib.sha256(exported.encode()).hexdigest()[:16] == self.PINNED

    @pytest.mark.parametrize("window", [[5.0, 5.0], [5.0, 7.0]])
    def test_a_reservation_off_the_window_is_refused(self, window):
        """An allocation stores one window, so a snapshot listing a
        reservation that books anything else is refused, not narrowed."""
        sched = make(n=2)
        sched.schedule(Request(qr=0.0, sr=5.0, lr=20.0, nr=2, rid=1))
        state = json.loads(json.dumps(sched.export_state()))
        (allocation,) = state["allocations"]
        allocation["reservations"][1][1:] = window
        with pytest.raises(ValueError, match="do not all book"):
            CoAllocationScheduler.from_state(state)

    def test_the_servers_of_an_allocation_are_not_gc_tracked(self):
        """Why ``servers`` is a tuple of ints: n_r frozen per-server
        objects would each be tracked by the cyclic collector for as long
        as the grant lives (DESIGN.md §21).  A tuple of ints leaves the
        collector's lists at its first collection."""
        sched = run_fixed_history(make(n=24, tau=10.0, q=16))
        gc.collect()
        allocations = list(sched._allocations.values())
        assert allocations
        assert not any(gc.is_tracked(a.servers) for a in allocations)
