"""Unit tests for the reference scheduler (the differential oracle).

The property suites and the differ compare the production scheduler
against :class:`~repro.verify.oracle.ReferenceScheduler`; these cases pin
the oracle's own retry, horizon and clock semantics on hand-built states.
"""

import pytest

from repro.core.types import INF
from repro.verify.oracle import ReferenceScheduler


def make(n=4, delta_t=10.0, r_max=6, q_slots=12):
    return ReferenceScheduler(n, tau=10.0, q_slots=q_slots, delta_t=delta_t, r_max=r_max)


class TestSchedule:
    def test_immediate_success(self):
        ref = make()
        d = ref.schedule(1, 0.0, 30.0, 3)
        assert d["ok"] and d["start"] == 0.0 and d["attempts"] == 1
        assert len(set(d["servers"])) == 3

    def test_retry_semantics_match_online(self):
        ref = make(n=1)
        ref.schedule(1, 0.0, 25.0, 1)
        d = ref.schedule(2, 0.0, 10.0, 1)
        assert d["ok"] and d["start"] == 30.0 and d["attempts"] == 4

    def test_r_max_exhaustion(self):
        ref = make(n=1, r_max=2)
        ref.schedule(1, 0.0, 45.0, 1)
        assert ref.schedule(2, 0.0, 10.0, 1) == {"ok": False, "attempts": 2, "reason": "exhausted"}

    def test_horizon_limits_attempts(self):
        ref = make(q_slots=5, r_max=100)  # horizon [0, 50)
        assert ref.schedule(1, 60.0, 10.0, 1) == {"ok": False, "attempts": 0, "reason": "horizon"}

    def test_deadline_respected(self):
        ref = make(n=1)
        ref.schedule(1, 0.0, 35.0, 1)
        d = ref.schedule(2, 0.0, 10.0, 1, deadline=30.0)
        assert d == {"ok": False, "attempts": 3, "reason": "deadline"}  # 0, 10, 20 tried

    def test_no_double_booking(self):
        ref = make(n=2)
        a = ref.schedule(1, 0.0, 50.0, 2)
        b = ref.schedule(2, 20.0, 10.0, 1)
        assert a["ok"] and b["ok"]
        assert b["start"] >= 50.0


class TestAdvance:
    def test_advance_drops_finished(self):
        ref = make(n=1)
        ref.schedule(1, 20.0, 10.0, 1)
        assert ref.export_intervals() == [[(0.0, 20.0, 1), (30.0, None, 2)]]
        ref.advance(40.0)  # the idle period [0, 20) ended before the horizon
        assert ref.export_intervals() == [[(30.0, None, 2)]]
        assert ref.probe(40.0, 50.0) == [(0, 30.0, INF)]

    def test_advance_backwards_raises(self):
        ref = make()
        ref.advance(5.0)
        with pytest.raises(ValueError, match="backwards"):
            ref.advance(4.0)

    def test_horizon_end_tracks_clock(self):
        ref = make(q_slots=10)
        ref.advance(50.0)
        assert ref.horizon_start == 50.0
        assert ref.in_horizon(149.5) and not ref.in_horizon(150.0)


class TestFreeServers:
    def test_initially_all_free(self):
        ref = make(n=4)
        assert ref.probe(0.0, 100.0) == [(s, 0.0, INF) for s in range(4)]

    def test_partial_occupation(self):
        ref = make(n=4)
        ref.schedule(1, 10.0, 20.0, 2)
        free = ref.probe(15.0, 25.0)
        assert len(free) == 2
