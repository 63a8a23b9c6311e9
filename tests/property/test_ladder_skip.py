"""The Δt ladder's O(1) infeasibility certificate is sound and invisible.

``AvailabilityCalendar.skip_infeasible`` lets the retry loop pass over
grid points without running Phase 1/2 there.  Two properties pin it:

* **soundness** — on any calendar state (random reserve / cancel /
  advance / drain / remove histories, both indexings, Δt below, at and
  above τ), ``find_feasible`` returns ``None`` at every point the walk
  skips, and the walk never runs past the deadline, the horizon or
  ``k_end``.  Every time is an integer-valued float, so windows end
  *exactly* on stored ending times — the ``>=`` side of the certificate;
* **equivalence** — ``schedule_detailed`` reports the same ``(start,
  end, attempts, reason)`` as the literal per-point loop over a
  :class:`~repro.core.linear.LinearScanAllocator` holding the same
  commitments (it shares no code with the calendar), including deadline
  and horizon exits inside a skipped run and ``R_max`` reached by
  skipping.
"""

from __future__ import annotations

from bisect import insort

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.calendar import AvailabilityCalendar
from repro.core.coalloc import OnlineCoAllocator
from repro.core.linear import LinearScanAllocator
from repro.core.opcount import OpCounter
from repro.core.types import INF, Request

TAU = 8.0
Q = 12
N = 5
#: Δt below, at and above the slot length: several grid points per slot,
#: one per slot, and slots the ladder jumps clean over
DELTAS = (TAU / 4, TAU, 2.5 * TAU)

ints = st.integers


@st.composite
def histories(draw):
    """Reserve / cancel / advance / jump / drain / remove op lists."""
    ops = []
    for _ in range(draw(ints(3, 20))):
        kind = draw(
            st.sampled_from(
                ["reserve"] * 6 + ["cancel", "cancel", "advance", "jump", "drain", "remove"]
            )
        )
        if kind == "reserve":
            lead = draw(st.sampled_from([0, 0, 0, 3, 8, 20, 50]))
            lr = draw(ints(1, 40))
            nr = draw(ints(1, N))
            slack = draw(st.sampled_from([None, None, 0, 4, 16]))
            ops.append(("reserve", float(lead), float(lr), nr, slack))
        elif kind == "cancel":
            ops.append(("cancel", draw(ints(0, 10**6))))
        elif kind == "advance":
            ops.append(("advance", float(draw(ints(0, 12)))))
        elif kind == "jump":
            ops.append(("advance", float(draw(ints(20, 120)))))
        else:
            ops.append((kind, draw(ints(0, N - 1))))
    return ops


class Driver:
    """One calendar + allocator driven through a history."""

    def __init__(self, indexing: str, delta_t: float, r_max: int) -> None:
        self.cal = AvailabilityCalendar(N, TAU, Q, indexing=indexing)
        self.alloc = OnlineCoAllocator(self.cal, delta_t=delta_t, r_max=r_max)
        self.live: list = []  # granted allocations not yet cancelled
        self.rid = 0

    def request(self, lead: float, lr: float, nr: int, slack: float | None) -> Request:
        now = self.cal.now
        sr = now + lead
        deadline = None if slack is None else sr + lr + slack
        self.rid += 1
        return Request(qr=now, sr=sr, lr=lr, nr=nr, rid=self.rid, deadline=deadline)

    def reserve(self, req: Request):
        outcome = self.alloc.schedule_detailed(req)
        if outcome.allocation is not None:
            self.live.append(outcome.allocation)
        return outcome

    def apply(self, op):
        """Run one op; a cancel returns the allocation it released."""
        cal = self.cal
        kind = op[0]
        if kind == "reserve":
            self.reserve(self.request(*op[1:]))
        elif kind == "cancel":
            if self.live:
                allocation = self.live.pop(op[1] % len(self.live))
                for res in allocation.reservations:
                    lo = max(res.start, cal.now)
                    if lo < res.end:
                        cal.release(res.server, lo, res.end)
                return allocation
        elif kind == "advance":
            cal.advance(cal.now + op[1])
        elif kind == "drain":
            active = sum(1 for s in range(cal.n_servers) if cal.server_status(s) == "active")
            if active > 1 and cal.server_status(op[1]) == "active":
                cal.drain(op[1])
        elif kind == "remove":
            if cal.server_status(op[1]) == "draining" and cal.is_drained(op[1]):
                cal.remove(op[1])
        return None


def assert_skips_are_infeasible(cal, base, delta_t, k_end, latest, lr, nr):
    """Walk the whole ladder; every skipped point must really fail."""
    k = 0
    while k < k_end:
        nxt = cal.skip_infeasible(base, delta_t, k, k_end, latest, lr, nr)
        assert k <= nxt <= k_end
        for j in range(k, nxt):
            s = base + j * delta_t
            assert s <= latest, f"skipped past the deadline at k={j}"
            assert cal.in_horizon(s), f"skipped past the horizon at k={j}"
            assert cal.find_feasible(s, s + lr, nr) is None, (
                f"skipped a feasible start {s} (k={j}, lr={lr}, nr={nr})"
            )
        if nxt == k_end:
            return
        s = base + nxt * delta_t
        if s > latest or not cal.in_horizon(s):
            return
        k = nxt + 1


def stored_ends(cal) -> list[float]:
    """Finite ending times of the idle periods currently on record."""
    ends = {
        p.et
        for server in range(cal.n_servers)
        for p in cal.idle_periods(server)
        if p.et != INF
    }
    return sorted(ends)


class TestSkipSoundness:
    @pytest.mark.parametrize("indexing", ["tail", "dense"])
    @pytest.mark.parametrize("delta_t", DELTAS)
    @given(
        ops=histories(),
        lead=st.sampled_from([0.0, 1.0, 8.0, 30.0]),
        nr=ints(1, N),
    )
    @settings(max_examples=25, deadline=None)
    def test_no_feasible_point_is_skipped(self, indexing, delta_t, ops, lead, nr):
        k_end = int(Q * TAU / delta_t) + 2  # reaches past the horizon
        driver = Driver(indexing, delta_t, r_max=k_end)
        cal = driver.cal
        for op in ops:
            driver.apply(op)
            base = cal.now + lead
            ends = stored_ends(cal)
            for lr in (1.0, 24.0):
                assert_skips_are_infeasible(cal, base, delta_t, k_end, INF, lr, nr)
            # windows ending exactly on a stored et: the certificate
            # must treat ``max_end == s + lr`` as "may be feasible"
            for et in ends[:2] + ends[-1:]:
                if et > base:
                    assert_skips_are_infeasible(
                        cal, base, delta_t, k_end, INF, et - base, nr
                    )
            # a deadline that falls inside the ladder
            assert_skips_are_infeasible(
                cal, base, delta_t, k_end, base + 3.5 * delta_t, 5.0, N
            )
        cal.validate()


def literal_ladder(lin: LinearScanAllocator, cal, req: Request, delta_t: float, r_max: int):
    """The paper's per-point retry loop over the linear allocator's view."""
    base = max(req.sr, lin.now)
    for k in range(r_max):
        start = base + k * delta_t
        if start > req.latest_start:
            return None, k, "deadline"
        if not cal.in_horizon(start):
            return None, k, "horizon"
        if len(lin.free_servers(start, start + req.lr)) >= req.nr:
            return (start, start + req.lr), k + 1, None
    return None, r_max, "exhausted"


def mirror_allocate(lin: LinearScanAllocator, allocation) -> None:
    # the linear allocator picks servers first-fit; to compare ladders on
    # identical commitments the calendar's choice is written into its store
    for res in allocation.reservations:
        insort(lin._busy[res.server], (res.start, res.end))


def mirror_cancel(lin: LinearScanAllocator, allocation) -> None:
    for res in allocation.reservations:
        lo = max(res.start, lin.now)
        if lo < res.end:
            busy = lin._busy[res.server]
            busy.remove((res.start, res.end))
            if res.start < lo:
                insort(busy, (res.start, lo))  # the part already served


class TestLadderEquivalence:
    @pytest.mark.parametrize("delta_t,r_max", [(TAU / 4, 24), (TAU, 6), (TAU, 16), (2.5 * TAU, 7)])
    @given(ops=histories())
    @settings(max_examples=80, deadline=None)
    def test_same_verdict_as_the_literal_loop(self, delta_t, r_max, ops):
        driver = Driver("tail", delta_t, r_max)
        cal = driver.cal
        lin = LinearScanAllocator(N, delta_t=delta_t, r_max=r_max, horizon=Q * TAU)
        for op in ops:
            if op[0] in ("drain", "remove"):
                continue  # the linear allocator has no pool lifecycle
            if op[0] == "reserve":
                req = driver.request(*op[1:])
                # both sides see the state *before* the grant
                expected = literal_ladder(lin, cal, req, delta_t, r_max)
                outcome = driver.reserve(req)
                window = (
                    None
                    if outcome.allocation is None
                    else (outcome.allocation.start, outcome.allocation.end)
                )
                assert (window, outcome.attempts, outcome.reason) == expected
                if outcome.allocation is not None:
                    assert outcome.allocation.attempts == outcome.attempts
                    mirror_allocate(lin, outcome.allocation)
                continue
            released = driver.apply(op)
            if released is not None:
                mirror_cancel(lin, released)
            lin.advance(cal.now)
        cal.validate()


class TestExitsInsideASkippedRun:
    """Deadline, horizon and R_max exits reached without a single search."""

    def saturated(self, delta_t: float, r_max: int):
        counter = OpCounter()
        cal = AvailabilityCalendar(N, TAU, Q, counter=counter)
        alloc = OnlineCoAllocator(cal, delta_t=delta_t, r_max=r_max, counter=counter)
        # every server busy over [0, 80): nothing can start before 80
        assert alloc.schedule(Request(qr=0.0, sr=0.0, lr=80.0, nr=N, rid=1)) is not None
        counter.reset()
        searched: list[float] = []
        find = cal.find_feasible
        cal.find_feasible = lambda sr, er, nr: searched.append(sr) or find(sr, er, nr)
        return alloc, searched

    def test_deadline_exit(self):
        alloc, searched = self.saturated(TAU / 4, 64)
        outcome = alloc.schedule_detailed(
            Request(qr=0.0, sr=0.0, lr=4.0, nr=1, rid=2, deadline=25.0)
        )
        # starts 0, 2, …, 20 meet the deadline (latest start 21); k=11 does not
        assert (outcome.allocation, outcome.attempts, outcome.reason) == (None, 11, "deadline")
        assert searched == []

    def test_exhausted_exit(self):
        alloc, searched = self.saturated(TAU, 6)
        outcome = alloc.schedule_detailed(Request(qr=0.0, sr=0.0, lr=4.0, nr=1, rid=2))
        assert (outcome.allocation, outcome.attempts, outcome.reason) == (None, 6, "exhausted")
        assert searched == []

    def test_horizon_exit(self):
        alloc, searched = self.saturated(2.5 * TAU, 64)
        # N + 1 servers never exist, so every point up to the horizon fails
        outcome = alloc.schedule_detailed(Request(qr=0.0, sr=0.0, lr=4.0, nr=N + 1, rid=2))
        # starts 0, 20, …, 80 lie inside the horizon [0, 96); k=5 does not
        assert (outcome.allocation, outcome.attempts, outcome.reason) == (None, 5, "horizon")
        assert searched == []

    def test_grant_after_a_skipped_run_counts_every_point(self):
        alloc, searched = self.saturated(TAU / 4, 64)
        outcome = alloc.schedule_detailed(Request(qr=0.0, sr=1.0, lr=4.0, nr=2, rid=2))
        # 1, 3, …, 79 are certified infeasible; 81 is the first that fits
        assert outcome.allocation is not None
        assert outcome.allocation.start == 81.0
        assert outcome.attempts == outcome.allocation.attempts == 41
        assert searched == [81.0]
        # the opcounter prices what was done: every grid point is an
        # attempt, every certificate one read of a secondary index
        assert alloc.counter.get("attempt") == 41
        assert alloc.counter.get("secondary_probe") >= 40
        assert alloc.counter.get("node_visit") == 0  # slot 10's tree is empty
