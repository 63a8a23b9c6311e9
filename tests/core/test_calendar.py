"""Unit tests for the availability calendar."""

import json
from time import perf_counter

import pytest

from repro.core.calendar import AvailabilityCalendar
from repro.core.types import INF, IdlePeriod


def make_calendar(n=4, tau=10.0, q=12, start=0.0) -> AvailabilityCalendar:
    return AvailabilityCalendar(n_servers=n, tau=tau, q_slots=q, start_time=start)


class TestConstruction:
    def test_initially_all_idle(self):
        cal = make_calendar()
        for s in range(4):
            periods = cal.idle_periods(s)
            assert len(periods) == 1
            assert periods[0].st == 0.0 and periods[0].et == INF
        cal.validate()

    def test_geometry(self):
        cal = make_calendar(tau=10.0, q=12)
        assert cal.horizon_start == 0.0
        assert cal.horizon_end == 120.0
        assert cal.slot_of(0.0) == 0
        assert cal.slot_of(9.999) == 0
        assert cal.slot_of(10.0) == 1
        assert cal.in_horizon(119.0)
        assert not cal.in_horizon(120.0)

    def test_nonzero_start_time(self):
        cal = make_calendar(start=35.0)
        assert cal.horizon_start == 30.0  # slot-aligned
        assert cal.in_horizon(35.0)
        cal.validate()

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="server"):
            AvailabilityCalendar(0, 10.0, 12)
        with pytest.raises(ValueError, match="slot length"):
            AvailabilityCalendar(4, 0.0, 12)
        with pytest.raises(ValueError, match="slot"):
            AvailabilityCalendar(4, 10.0, 0)


class TestFindFeasible:
    def test_fresh_system_fully_feasible(self):
        cal = make_calendar()
        found = cal.find_feasible(0.0, 1000.0, 4)
        assert found is not None and len(found) == 4
        assert len({p.server for p in found}) == 4

    def test_too_many_servers_fails(self):
        cal = make_calendar(n=4)
        assert cal.find_feasible(0.0, 10.0, 5) is None

    def test_outside_horizon_fails(self):
        cal = make_calendar(tau=10.0, q=12)
        assert cal.find_feasible(120.0, 130.0, 1) is None

    def test_query_does_not_commit(self):
        cal = make_calendar()
        cal.find_feasible(0.0, 50.0, 4)
        found = cal.find_feasible(0.0, 50.0, 4)
        assert found is not None and len(found) == 4


class TestAllocate:
    def test_allocation_splits_period(self):
        cal = make_calendar()
        periods = cal.find_feasible(20.0, 40.0, 1)
        servers = cal.allocate(periods, 20.0, 40.0)
        assert servers == (periods[0].server,)
        (server,) = servers
        remaining = cal.idle_periods(server)
        assert [(p.st, p.et) for p in remaining] == [(0.0, 20.0), (40.0, INF)]
        cal.validate()

    def test_allocation_at_period_start_leaves_one_remnant(self):
        cal = make_calendar()
        periods = cal.find_feasible(0.0, 30.0, 2)
        cal.allocate(periods, 0.0, 30.0)
        for res_period in periods:
            remaining = cal.idle_periods(res_period.server)
            assert [(p.st, p.et) for p in remaining] == [(30.0, INF)]
        cal.validate()

    def test_allocated_window_no_longer_feasible(self):
        cal = make_calendar(n=1)
        periods = cal.find_feasible(10.0, 50.0, 1)
        cal.allocate(periods, 10.0, 50.0)
        assert cal.find_feasible(30.0, 40.0, 1) is None
        # but the leading gap still is
        assert cal.find_feasible(0.0, 10.0, 1) is not None
        cal.validate()

    def test_allocate_infeasible_period_raises(self):
        cal = make_calendar()
        p = cal.idle_periods(0)[0]
        cal.allocate([p], 10.0, 20.0)
        stale = cal.idle_periods(0)[0]  # (0, 10)
        with pytest.raises(ValueError, match="cannot host"):
            cal.allocate([stale], 5.0, 15.0)

    @pytest.mark.parametrize(
        "case",
        [
            "fresh_then_stale",
            "named_twice",
            "empty_window",
            "open_ended",
            "stale_trailing_carved_again",
            "bounded_then_stale_trailing",
        ],
    )
    def test_a_refused_allocation_changes_nothing(self, case):
        """Every handle is checked before the first one is carved: a stale
        or repeated handle late in the list used to leave the earlier
        servers carved, their time held by no allocation.  An open-ended
        window used to be granted, leaving its server no trailing period
        and the grant impossible to release.  A trailing handle is checked
        against the end of its server's list, which a handle whose server
        has been carved again since no longer is."""
        cal = AvailabilityCalendar(4, 10.0, 10)
        fresh, stale = cal.idle_periods(0)[0], cal.idle_periods(1)[0]
        cal.allocate([stale], 0.0, 20.0)
        recarved = cal.idle_periods(1)[-1]  # [20, ∞), carved again below
        cal.allocate([recarved], 30.0, 40.0)
        cal.allocate(cal.idle_periods(2), 50.0, 60.0)
        bounded = cal.idle_periods(2)[0]  # [0, 50), in slots 0..4
        assert (bounded.st, bounded.et) == (0.0, 50.0)
        before = json.dumps(cal.export_state(), sort_keys=True)
        notes = {q: (sorted(t._ins), sorted(t._rem)) for q, t in cal._trees.items()}
        periods, start, end, match = {
            "fresh_then_stale": ([fresh, stale], 0.0, 20.0, "not registered"),
            "named_twice": ([fresh, fresh], 0.0, 20.0, "named twice"),
            "empty_window": ([fresh], 20.0, 20.0, "empty"),
            "open_ended": ([fresh], 0.0, INF, "never ends"),
            "stale_trailing_carved_again": ([fresh, recarved], 20.0, 30.0, "not registered"),
            "bounded_then_stale_trailing": ([bounded, stale], 0.0, 20.0, "not registered"),
        }[case]
        with pytest.raises(ValueError, match=match):
            cal.allocate(periods, start, end)
        assert json.dumps(cal.export_state(), sort_keys=True) == before
        assert {q: (sorted(t._ins), sorted(t._rem)) for q, t in cal._trees.items()} == notes
        cal.validate()
        assert cal.allocate([fresh], 0.0, 20.0) == (0,)

    def test_gap_fill_between_reservations(self):
        cal = make_calendar(n=1)
        cal.allocate(cal.find_feasible(0.0, 20.0, 1), 0.0, 20.0)
        cal.allocate(cal.find_feasible(50.0, 80.0, 1), 50.0, 80.0)
        gap = cal.find_feasible(20.0, 50.0, 1)
        assert gap is not None
        assert gap[0].st == 20.0 and gap[0].et == 50.0
        cal.allocate(gap, 20.0, 50.0)
        assert cal.idle_periods(0)[-1].st == 80.0
        cal.validate()

    def test_prefers_bounded_over_trailing_periods(self):
        # best-fit: a gap that exactly fits should be chosen before
        # cutting into a server's unbounded trailing idle time
        cal = make_calendar(n=2)
        # server gets a reservation [40, 60) creating a bounded gap [0, 40)
        first = cal.find_feasible(40.0, 60.0, 1)
        cal.allocate(first, 40.0, 60.0)
        busy_server = first[0].server
        found = cal.find_feasible(0.0, 30.0, 1)
        assert found is not None
        assert found[0].server == busy_server  # the bounded gap wins
        cal.validate()

    def test_reservation_beyond_horizon_end(self):
        cal = make_calendar(tau=10.0, q=12)  # horizon [0, 120)
        periods = cal.find_feasible(110.0, 500.0, 2)
        assert periods is not None
        cal.allocate(periods, 110.0, 500.0)
        cal.validate()
        # the trailing remnants start at 500, far beyond the horizon
        servers = {p.server for p in periods}
        for s in servers:
            assert cal.idle_periods(s)[-1].st == 500.0


class TestAdvanceAndRollover:
    def test_advance_moves_clock(self):
        cal = make_calendar()
        cal.advance(25.0)
        assert cal.now == 25.0
        assert cal.horizon_start == 20.0
        assert cal.horizon_end == 140.0
        cal.validate()

    def test_advance_backwards_raises(self):
        cal = make_calendar()
        cal.advance(5.0)
        with pytest.raises(ValueError, match="backwards"):
            cal.advance(4.0)

    def test_rollover_extends_search_window(self):
        cal = make_calendar(tau=10.0, q=12)
        assert cal.find_feasible(125.0, 130.0, 1) is None
        cal.advance(15.0)  # horizon now [10, 130)
        assert cal.find_feasible(125.0, 130.0, 1) is not None

    def test_long_jump_advance(self):
        cal = make_calendar(tau=10.0, q=12)
        cal.allocate(cal.find_feasible(5.0, 25.0, 2), 5.0, 25.0)
        cal.advance(500.0)  # jump far past everything
        cal.validate()
        found = cal.find_feasible(505.0, 550.0, 4)
        assert found is not None and len(found) == 4

    def test_jump_cost_is_bounded_by_the_horizon_not_the_distance(self):
        """`qr` is unbounded on the wire: one request may move the clock
        any distance, and must not roll one slot tree per slot passed."""
        cal = AvailabilityCalendar(8, 900.0, 96)
        trailing = cal.idle_periods(0)[-1]
        cal.allocate([trailing], 50_000.0, 51_000.0)  # a gap [0, 50000) across 56 slots
        assert len(cal._trees) == 56
        started = perf_counter()
        cal.advance(1e12 * 900.0)
        assert perf_counter() - started < 1.0
        assert cal._base_slot == 10**12
        assert not cal._trees
        cal.validate()
        found = cal.find_feasible(cal.now + 10.0, cal.now + 5000.0, 8)
        assert found is not None and len(found) == 8

    def test_history_trimmed(self):
        cal = make_calendar(n=2, tau=10.0, q=12)
        cal.allocate(cal.find_feasible(0.0, 10.0, 2), 0.0, 10.0)
        cal.advance(200.0)
        for s in range(2):
            periods = cal.idle_periods(s)
            assert len(periods) == 1  # the finished gap history is gone
            assert periods[0].et == INF


class TestRelease:
    def test_release_merges_with_both_neighbours(self):
        cal = make_calendar(n=1)
        periods = cal.find_feasible(20.0, 40.0, 1)
        cal.allocate(periods, 20.0, 40.0)
        cal.release(0, 20.0, 40.0)
        merged = cal.idle_periods(0)
        assert [(p.st, p.et) for p in merged] == [(0.0, INF)]
        cal.validate()

    def test_partial_release_merges_tail_only(self):
        cal = make_calendar(n=1)
        cal.allocate(cal.find_feasible(20.0, 40.0, 1), 20.0, 40.0)
        cal.release(0, 30.0, 40.0)  # early completion at t=30
        assert [(p.st, p.et) for p in cal.idle_periods(0)] == [(0.0, 20.0), (30.0, INF)]
        cal.validate()

    def test_release_overlapping_idle_raises(self):
        cal = make_calendar(n=1)
        with pytest.raises(ValueError, match="overlaps"):
            cal.release(0, 10.0, 20.0)

    def test_a_refused_release_keeps_its_merge_neighbours(self):
        """The overlap is found before either merge candidate is dropped:
        the trailing period used to be gone by the time it was."""
        cal = AvailabilityCalendar(1, 10.0, 10)
        cal.allocate(cal.idle_periods(0), 10.0, 20.0)
        before = json.dumps(cal.export_state(), sort_keys=True)
        with pytest.raises(ValueError, match="overlaps"):
            cal.release(0, 5.0, 20.0)  # [5, 10) is idle already
        assert json.dumps(cal.export_state(), sort_keys=True) == before
        cal.validate()
        assert not cal.is_drained(0)

    def test_release_empty_window_raises(self):
        cal = make_calendar(n=1)
        with pytest.raises(ValueError, match="empty"):
            cal.release(0, 10.0, 10.0)


class TestFractionalTauBoundaries:
    """Slot boundaries with a fractional ``tau`` (regression).

    Float modulo is the wrong boundary test: ``0.5 % 0.1`` is not 0, so
    an end time sitting exactly on a slot edge used to be treated as
    reaching *into* the next slot, indexing the period into a tree it
    does not overlap.  The calendar now derives the last overlapping
    slot from ``slot_of`` arithmetic alone.
    """

    def test_allocate_release_on_boundary_validates(self):
        cal = make_calendar(n=2, tau=0.1, q=12)
        found = cal.find_feasible(0.2, 0.5, 1)
        assert found is not None
        (server,) = cal.allocate(found, 0.2, 0.5)
        cal.validate()
        cal.release(server, 0.2, 0.5)
        cal.validate()

    def test_boundary_end_stays_out_of_next_slot(self):
        cal = make_calendar(n=1, tau=0.1, q=12)
        cal.allocate(cal.find_feasible(0.0, 0.5, 1), 0.0, 0.5)
        cal.validate()
        # the busy window [0, 0.5) must not shadow slot 5: the idle
        # remnant starting at 0.5 covers [0.5, 0.9)
        assert cal.find_feasible(0.5, 0.9, 1) is not None

    def test_repeated_boundary_cycles_stay_consistent(self):
        cal = make_calendar(n=2, tau=0.1, q=24)
        for k in range(1, 8):
            start, end = round(k * 0.1, 10), round((k + 2) * 0.1, 10)
            found = cal.find_feasible(start, end, 2)
            assert found is not None
            servers = cal.allocate(found, start, end)
            cal.validate()
            for server in servers:
                cal.release(server, start, end)
            cal.validate()


class TestRangeSearch:
    def test_fresh_system_range_search(self):
        cal = make_calendar(n=4)
        found = cal.range_search(30.0, 60.0)
        assert len(found) == 4

    def test_range_search_excludes_busy(self):
        cal = make_calendar(n=4)
        periods = cal.find_feasible(30.0, 60.0, 2)
        cal.allocate(periods, 30.0, 60.0)
        found = cal.range_search(35.0, 55.0)
        assert len(found) == 2
        assert {p.server for p in found}.isdisjoint({p.server for p in periods})

    def test_range_search_outside_horizon(self):
        cal = make_calendar(tau=10.0, q=12)
        assert cal.range_search(500.0, 600.0) == []

    def test_range_search_includes_bounded_gaps(self):
        cal = make_calendar(n=1)
        cal.allocate(cal.find_feasible(50.0, 80.0, 1), 50.0, 80.0)
        found = cal.range_search(10.0, 40.0)
        assert len(found) == 1 and found[0].et == 50.0
