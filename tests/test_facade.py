"""Unit tests for the public CoAllocationScheduler facade."""

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
