"""The paper's worked example, end to end (Figures 1-2, Section 4.2).

Setup: a 4-server system with horizon H = 42 and slot size τ = 10.
After the jobs of Figure 1 are committed, the idle periods of Figure 2(a)
exist:

* X = (4, 25)  on server 1   (between jobs A and B)
* Y = (16, 33) on server 2
* Z = (7, 33)  on server 3
* V = (1, 18)  on server 4

The request walked through in Section 4.2 is
``r = (q_r=17, s_r=17, l_r=12, n_r=2)`` (so ``e_r = 29``):

* Phase 1 in slot q=1 (interval [10, 20)) finds **4 candidates** —
  X, Y, Z, V all start at or before 17;
* Phase 2 finds exactly **Y and Z** feasible (the only periods with
  ``et >= 29``) and returns them, in that order (latest-starting
  candidates first).
"""

import pytest

from repro.core.calendar import AvailabilityCalendar
from repro.core.coalloc import OnlineCoAllocator
from repro.core.slot_tree import TwoDimTree
from repro.core.types import IdlePeriod, Request

# Figure 2(a): (name, server, st, et)
PAPER_PERIODS = [
    ("X", 1, 4.0, 25.0),
    ("Y", 2, 16.0, 33.0),
    ("Z", 3, 7.0, 33.0),
    ("V", 4, 1.0, 18.0),
]


@pytest.fixture
def slot_tree():
    """The 2-D tree for slot q covering [10, 20), holding X, Y, Z, V."""
    tree = TwoDimTree()
    for uid, (_, server, st, et) in enumerate(PAPER_PERIODS):  # created X, Y, Z, V
        tree.insert(IdlePeriod(server=server, st=st, et=et, uid=uid))
    return tree


class TestFigure2:
    def test_all_four_periods_overlap_slot_one(self, slot_tree):
        # "Since all four idle periods overlap (at least partially) with
        # this slot, the primary tree stores all four in its leaves"
        assert len(slot_tree) == 4

    def test_phase1_finds_four_candidates(self, slot_tree):
        count, _ = slot_tree.phase1(17.0)
        assert count == 4  # "the algorithm has found 4 > nr = 2 candidates"

    def test_phase2_returns_y_then_z(self, slot_tree):
        found = slot_tree.find_feasible(17.0, 29.0, 2)
        assert found is not None
        # "the algorithm searches node Y first, and confirms that it is a
        #  feasible idle period; it then repeats the process with node Z"
        assert [(p.server, p.st, p.et) for p in found] == [
            (2, 16.0, 33.0),  # Y
            (3, 7.0, 33.0),  # Z
        ]

    def test_x_and_v_are_candidates_but_not_feasible(self, slot_tree):
        # X ends at 25 < 29, V ends at 18 < 29
        for server, st, et in [(1, 4.0, 25.0), (4, 1.0, 18.0)]:
            p = IdlePeriod(server=server, st=st, et=et, uid=0)
            assert p.is_candidate(17.0)
            assert not p.is_feasible(17.0, 29.0)

    def test_three_servers_would_fail(self, slot_tree):
        # only two feasible periods exist; nr=3 must fail Phase 2
        assert slot_tree.find_feasible(17.0, 29.0, 3) is None


class TestFigure1Schedule:
    """Rebuild Figure 1's whole schedule through the public API."""

    def make_calendar(self) -> AvailabilityCalendar:
        cal = AvailabilityCalendar(n_servers=5, tau=10.0, q_slots=5)  # H=50; server 0 unused
        # Figure 1's committed jobs (read off the chart):
        #   server 1: job A [0, 4), job B [25, 34)
        #   server 2: jobs ending at 16 and starting at 33
        #   server 3: jobs ending at 7 and starting at 33
        #   server 4: job ending at 1 and job starting at 18
        for server, windows in {
            1: [(0.0, 4.0), (25.0, 34.0)],
            2: [(0.0, 16.0), (33.0, 42.0)],
            3: [(0.0, 7.0), (33.0, 42.0)],
            4: [(0.0, 1.0), (18.0, 42.0)],
        }.items():
            for start, end in windows:
                periods = [
                    p for p in cal.idle_periods(server) if p.is_feasible(start, end)
                ]
                cal.allocate(periods[:1], start, end)
        cal.validate()
        return cal

    def test_idle_periods_match_figure_2a(self):
        cal = self.make_calendar()
        got = {
            (p.server, p.st, p.et)
            for server in range(1, 5)
            for p in cal.idle_periods(server)
            if p.et <= 42.0  # ignore the trailing idle beyond the chart
        }
        expected = {(s, st, et) for _, s, st, et in PAPER_PERIODS}
        assert expected <= got

    def test_section_42_request_schedules_on_y_and_z(self):
        cal = self.make_calendar()
        alloc = OnlineCoAllocator(cal, delta_t=10.0, r_max=2).schedule(
            Request(qr=17.0, sr=17.0, lr=12.0, nr=2, rid=1)
        )
        assert alloc is not None
        assert alloc.start == 17.0 and alloc.end == 29.0 and alloc.attempts == 1
        assert set(alloc.servers) == {2, 3}  # Y's and Z's servers
        cal.validate()
