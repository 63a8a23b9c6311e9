"""Unit tests for the online co-allocation algorithm (Section 4.2)."""

import pytest

from repro.core.calendar import AvailabilityCalendar
from repro.core.coalloc import OnlineCoAllocator
from repro.core.opcount import OpCounter
from repro.core.types import RangeQuery, Request


def make_allocator(n=4, tau=10.0, q=12, delta_t=10.0, r_max=6, start=0.0):
    counter = OpCounter()
    cal = AvailabilityCalendar(n, tau, q, start_time=start, counter=counter)
    return OnlineCoAllocator(cal, delta_t=delta_t, r_max=r_max, counter=counter), cal


class TestScheduleImmediate:
    def test_succeeds_first_attempt_when_free(self):
        alloc, _ = make_allocator()
        a = alloc.schedule(Request(qr=0.0, sr=0.0, lr=30.0, nr=3, rid=1))
        assert a is not None
        assert a.start == 0.0 and a.end == 30.0
        assert a.attempts == 1 and a.delay == 0.0
        assert a.nr == 3 and len(set(a.servers)) == 3

    def test_reservations_match_window(self):
        alloc, cal = make_allocator()
        a = alloc.schedule(Request(qr=5.0, sr=5.0, lr=20.0, nr=2, rid=2))
        assert (a.rid, a.start, a.end) == (2, 5.0, 25.0)
        for server in a.servers:
            # the window is booked on every server the allocation names
            assert not any(p.overlaps(5.0, 25.0) for p in cal.idle_periods(server))

    def test_oversized_request_fails_every_attempt(self):
        alloc, _ = make_allocator(n=4, r_max=3)
        a = alloc.schedule(Request(qr=0.0, sr=0.0, lr=10.0, nr=5, rid=3))
        assert a is None

    def test_commitments_are_respected(self):
        alloc, cal = make_allocator(n=2)
        first = alloc.schedule(Request(qr=0.0, sr=0.0, lr=40.0, nr=2, rid=1))
        assert first is not None
        second = alloc.schedule(Request(qr=0.0, sr=0.0, lr=10.0, nr=1, rid=2))
        assert second is not None
        assert second.start >= 40.0  # had to wait for the first job
        cal.validate()


class TestRetryLoop:
    def test_delay_is_multiple_of_delta_t(self):
        alloc, _ = make_allocator(n=1, delta_t=10.0)
        alloc.schedule(Request(qr=0.0, sr=0.0, lr=25.0, nr=1, rid=1))
        a = alloc.schedule(Request(qr=0.0, sr=0.0, lr=10.0, nr=1, rid=2))
        assert a is not None
        assert a.start == 30.0  # first multiple of 10 at/after 25
        assert a.attempts == 4
        assert a.delay == 30.0

    def test_r_max_bounds_attempts(self):
        alloc, _ = make_allocator(n=1, delta_t=10.0, r_max=2)
        alloc.schedule(Request(qr=0.0, sr=0.0, lr=45.0, nr=1, rid=1))
        # would need to wait until t=50: attempts at 0 and 10 both fail
        a = alloc.schedule(Request(qr=0.0, sr=0.0, lr=10.0, nr=1, rid=2))
        assert a is None

    def test_bounded_delay_guarantee(self):
        # R_max * delta_t is an upper bound on scheduler-added delay
        alloc, _ = make_allocator(n=2, tau=10.0, q=12, delta_t=10.0, r_max=6)
        for rid in range(8):
            a = alloc.schedule(Request(qr=0.0, sr=0.0, lr=15.0, nr=1, rid=rid))
            if a is not None:
                assert a.delay <= 6 * 10.0

    def test_attempts_counted_in_ops(self):
        alloc, _ = make_allocator(n=1, delta_t=10.0)
        counter = alloc.counter
        alloc.schedule(Request(qr=0.0, sr=0.0, lr=25.0, nr=1, rid=1))
        before = counter.get("attempt")
        alloc.schedule(Request(qr=0.0, sr=0.0, lr=10.0, nr=1, rid=2))
        assert counter.get("attempt") - before == 4


class TestAdvanceReservations:
    def test_future_start_honoured(self):
        alloc, _ = make_allocator()
        a = alloc.schedule(Request(qr=0.0, sr=50.0, lr=20.0, nr=2, rid=1))
        assert a is not None
        assert a.start == 50.0
        assert a.delay == 0.0

    def test_two_reservations_same_window_different_servers(self):
        alloc, cal = make_allocator(n=4)
        a = alloc.schedule(Request(qr=0.0, sr=50.0, lr=20.0, nr=2, rid=1))
        b = alloc.schedule(Request(qr=0.0, sr=50.0, lr=20.0, nr=2, rid=2))
        assert a is not None and b is not None
        assert set(a.servers).isdisjoint(set(b.servers))
        cal.validate()

    def test_past_start_scheduled_from_now(self):
        alloc, cal = make_allocator(start=100.0)
        cal.advance(130.0)
        a = alloc.schedule(Request(qr=0.0, sr=0.0, lr=10.0, nr=1, rid=1))
        assert a is not None
        assert a.start == 130.0

    def test_beyond_horizon_fails(self):
        alloc, _ = make_allocator(tau=10.0, q=12)  # horizon [0, 120)
        a = alloc.schedule(Request(qr=0.0, sr=130.0, lr=10.0, nr=1, rid=1))
        assert a is None


class TestDeadlines:
    def test_deadline_met_when_feasible(self):
        alloc, _ = make_allocator()
        a = alloc.schedule(Request(qr=0.0, sr=0.0, lr=20.0, nr=1, rid=1, deadline=40.0))
        assert a is not None and a.end <= 40.0

    def test_deadline_stops_retries(self):
        alloc, _ = make_allocator(n=1, delta_t=10.0, r_max=6)
        alloc.schedule(Request(qr=0.0, sr=0.0, lr=35.0, nr=1, rid=1))
        # earliest feasible start is 40, but deadline forces start <= 20
        a = alloc.schedule(Request(qr=0.0, sr=0.0, lr=10.0, nr=1, rid=2, deadline=30.0))
        assert a is None

    def test_deadline_allows_exact_fit(self):
        alloc, _ = make_allocator(n=1, delta_t=10.0, r_max=6)
        alloc.schedule(Request(qr=0.0, sr=0.0, lr=20.0, nr=1, rid=1))
        a = alloc.schedule(Request(qr=0.0, sr=0.0, lr=10.0, nr=1, rid=2, deadline=30.0))
        assert a is not None and a.start == 20.0


class TestScheduleOutcome:
    """``schedule_detailed`` reports the *actual* attempt count on failure."""

    def test_success_reports_attempts_and_no_reason(self):
        alloc, _ = make_allocator(n=1, delta_t=10.0)
        alloc.schedule(Request(qr=0.0, sr=0.0, lr=25.0, nr=1, rid=1))
        outcome = alloc.schedule_detailed(Request(qr=0.0, sr=0.0, lr=10.0, nr=1, rid=2))
        assert outcome.allocation is not None
        assert outcome.reason is None
        assert outcome.attempts == 4 == outcome.allocation.attempts

    def test_deadline_exit_counts_only_real_attempts(self):
        alloc, _ = make_allocator(n=1, delta_t=10.0, r_max=6)
        alloc.schedule(Request(qr=0.0, sr=0.0, lr=35.0, nr=1, rid=1))
        # latest admissible start is 20: starts 0, 10, 20 are attempted
        # (server busy until 35), the fourth candidate (30) misses the
        # deadline — 3 attempts, not R_max = 6
        outcome = alloc.schedule_detailed(
            Request(qr=0.0, sr=0.0, lr=10.0, nr=1, rid=2, deadline=30.0)
        )
        assert outcome.allocation is None
        assert outcome.reason == "deadline"
        assert outcome.attempts == 3

    def test_horizon_exit_before_first_attempt(self):
        alloc, _ = make_allocator(tau=10.0, q=12)  # horizon [0, 120)
        outcome = alloc.schedule_detailed(Request(qr=0.0, sr=130.0, lr=10.0, nr=1, rid=1))
        assert outcome.allocation is None
        assert outcome.reason == "horizon"
        assert outcome.attempts == 0

    def test_exhausted_reports_r_max(self):
        alloc, _ = make_allocator(n=1, delta_t=10.0, r_max=2)
        alloc.schedule(Request(qr=0.0, sr=0.0, lr=45.0, nr=1, rid=1))
        outcome = alloc.schedule_detailed(Request(qr=0.0, sr=0.0, lr=10.0, nr=1, rid=2))
        assert outcome.allocation is None
        assert outcome.reason == "exhausted"
        assert outcome.attempts == 2

    def test_schedule_matches_detailed_allocation(self):
        alloc, _ = make_allocator()
        req = Request(qr=0.0, sr=0.0, lr=30.0, nr=2, rid=7)
        assert alloc.schedule(req) is not None
        assert alloc.schedule_detailed(
            Request(qr=0.0, sr=200.0, lr=10.0, nr=1, rid=8)
        ).allocation is None


class TestRangeSearchAndCommit:
    def test_range_search_then_commit(self):
        alloc, cal = make_allocator(n=4)
        found = alloc.range_search(RangeQuery(ta=10.0, tb=30.0))
        assert len(found) == 4
        chosen = found[:2]
        a = alloc.commit(chosen, 10.0, 30.0, rid=9)
        assert a.nr == 2
        cal.validate()
        # committed servers are gone from a repeat search
        again = alloc.range_search(RangeQuery(ta=10.0, tb=30.0))
        assert len(again) == 2

    def test_commit_stale_period_raises(self):
        alloc, _ = make_allocator(n=1)
        found = alloc.range_search(RangeQuery(ta=10.0, tb=30.0))
        alloc.commit(found, 10.0, 30.0, rid=1)
        with pytest.raises(ValueError):
            alloc.commit(found, 10.0, 30.0, rid=2)


class TestValidation:
    def test_rejects_bad_delta_t(self):
        _, cal = make_allocator()
        with pytest.raises(ValueError, match="increment"):
            OnlineCoAllocator(cal, delta_t=0.0, r_max=3)

    def test_rejects_bad_r_max(self):
        _, cal = make_allocator()
        with pytest.raises(ValueError, match="attempt"):
            OnlineCoAllocator(cal, delta_t=1.0, r_max=0)
