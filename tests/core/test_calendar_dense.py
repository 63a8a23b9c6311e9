"""Unit tests for the dense (paper-literal) calendar indexing mode."""

import pytest

from repro.core.calendar import AvailabilityCalendar
from repro.core.types import INF


def make(n=4, tau=10.0, q=12):
    return AvailabilityCalendar(n_servers=n, tau=tau, q_slots=q, indexing="dense")


class TestDenseMode:
    def test_flag(self):
        assert make().dense
        assert not AvailabilityCalendar(2, 10.0, 4).dense

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="indexing"):
            AvailabilityCalendar(2, 10.0, 4, indexing="sparse")

    def test_trailing_periods_live_in_every_tree(self):
        cal = make(n=3, q=12)
        for q in range(12):
            tree = cal._trees[cal.slot_of(q * 10.0)]
            assert len(tree) == 3  # one trailing period per server
        cal.validate()

    def test_allocation_updates_all_trees(self):
        cal = make(n=2, q=12)
        periods = cal.find_feasible(20.0, 40.0, 1)
        cal.allocate(periods, 20.0, 40.0)
        cal.validate()
        server = periods[0].server
        # the bounded remnant [0, 20) appears only in slots 0 and 1;
        # the trailing remnant (40, inf) appears in slots 4..11
        assert any(p.st == 40.0 and p.et == INF for p in cal._trees[cal.slot_of(50.0)].periods())
        assert any(p.et == 20.0 for p in cal._trees[cal.slot_of(0.0)].periods())
        assert not any(p.server == server for p in cal._trees[cal.slot_of(25.0)].periods())

    def test_rollover_seeds_trailing_periods(self):
        cal = make(n=2, q=12)
        cal.allocate(cal.find_feasible(0.0, 30.0, 2), 0.0, 30.0)
        cal.advance(25.0)  # new slot [120, 130) created
        cal.validate()
        new_tree = cal._trees[cal.slot_of(125.0)]
        assert len(new_tree) == 2  # both trailing periods reached the new slot

    def test_find_feasible_without_tail_index(self):
        cal = make(n=4)
        found = cal.find_feasible(10.0, 200.0, 4)
        assert found is not None and len(found) == 4
        assert all(p.et == INF for p in found)

    def test_range_search_no_duplicates(self):
        cal = make(n=3)
        found = cal.range_search(10.0, 30.0)
        assert len(found) == 3
        assert len({p.uid for p in found}) == 3

    def test_release_merges_in_dense_mode(self):
        cal = make(n=1)
        periods = cal.find_feasible(20.0, 40.0, 1)
        cal.allocate(periods, 20.0, 40.0)
        cal.release(0, 20.0, 40.0)
        cal.validate()
        assert [(p.st, p.et) for p in cal.idle_periods(0)] == [(0.0, INF)]
