"""The calendar's indexes answer exactly as a scan of every period does.

The calendar answers Phase 1/2 and range searches from the slot trees
plus one sorted tail index of the unbounded trailing periods, where the
paper stores a trailing period in the tree of every slot (DESIGN.md §3).
The claim is that this is a representation change and nothing else.
It is checked against :class:`~repro.verify.oracle.ReferenceScheduler`,
which keeps plain per-server lists and answers every question with a
scan: the two are driven through the same operations, and after each one
they must hold the same idle periods (uids included) and give the same
answer, selection order included, to every feasibility query and range
search asked of that state.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.calendar import AvailabilityCalendar
from repro.core.coalloc import OnlineCoAllocator
from repro.core.types import Request
from repro.verify.oracle import ReferenceScheduler

from .test_ladder_skip import idle_state

TAU = 10.0
Q = 24
N = 6
RMAX = 8


@st.composite
def request_streams(draw):
    n = draw(st.integers(min_value=1, max_value=20))
    reqs = []
    t = 0.0
    for i in range(n):
        t += draw(st.floats(min_value=0.0, max_value=30.0, allow_nan=False, width=32))
        lead = draw(st.sampled_from([0.0, 0.0, 15.0, 60.0]))
        lr = draw(st.floats(min_value=1.0, max_value=80.0, allow_nan=False, width=32))
        nr = draw(st.integers(min_value=1, max_value=N))
        reqs.append(Request(qr=t, sr=t + lead, lr=lr, nr=nr, rid=i))
    return reqs


def chosen(cal: AvailabilityCalendar, sr: float, er: float, nr: int):
    """The calendar's pick for ``[sr, er)`` × ``nr``, in selection order."""
    found = cal.find_feasible(sr, er, nr)
    return None if found is None else [(p.server, p.st, p.et, p.uid) for p in found]


def expected(ref: ReferenceScheduler, sr: float, er: float, nr: int):
    """The reference scheduler's pick, in the same shape."""
    found = ref._find_feasible(sr, er, nr)
    return None if found is None else [(server, *period) for server, period in found]


def ranged(cal: AvailabilityCalendar, ta: float, tb: float):
    return [(p.server, p.st, p.et) for p in cal.range_search(ta, tb)]


class Pair:
    """A calendar with its allocator, and the reference scheduler."""

    def __init__(self) -> None:
        self.cal = AvailabilityCalendar(N, TAU, Q)
        self.alloc = OnlineCoAllocator(self.cal, delta_t=TAU, r_max=RMAX)
        self.ref = ReferenceScheduler(N, TAU, Q, delta_t=TAU, r_max=RMAX)

    def advance(self, now: float) -> None:
        self.cal.advance(now)
        self.ref.advance(now)

    def schedule(self, req: Request):
        a = self.alloc.schedule(req)
        d = self.ref.schedule(req.rid, req.sr, req.lr, req.nr)
        assert d["ok"] == (a is not None), req
        if a is not None:
            assert (a.start, list(a.servers)) == (d["start"], d["servers"]), req
        return a


def lockstep(requests):
    pair = Pair()
    for req in requests:
        pair.advance(req.qr)
        # probe a few windows on the state both hold
        yield req, pair.cal, pair.ref
        pair.schedule(req)
    pair.cal.validate()


@st.composite
def op_streams(draw):
    """Randomized allocate / release / advance sequences.

    ``jump`` advances by half a horizon up to two whole horizons, rolling
    the horizon over slots that hold trees and over trailing periods —
    the paths a pure arrival stream rarely stresses.
    """
    n = draw(st.integers(min_value=5, max_value=25))
    ops = []
    for _ in range(n):
        kind = draw(st.sampled_from(["alloc", "alloc", "alloc", "release", "advance", "jump"]))
        if kind == "alloc":
            lead = draw(st.sampled_from([0.0, 0.0, 15.0, 60.0, 150.0]))
            lr = draw(st.floats(min_value=1.0, max_value=100.0, allow_nan=False, width=32))
            nr = draw(st.integers(min_value=1, max_value=N))
            ops.append(("alloc", lead, lr, nr))
        elif kind == "release":
            pick = draw(st.integers(min_value=0, max_value=10**6))
            frac = draw(st.floats(min_value=0.0, max_value=0.875, allow_nan=False, width=32))
            ops.append(("release", pick, frac))
        elif kind == "advance":
            dt = draw(st.floats(min_value=0.0, max_value=30.0, allow_nan=False, width=32))
            ops.append(("advance", dt))
        else:
            dt = draw(st.floats(min_value=120.0, max_value=500.0, allow_nan=False, width=32))
            ops.append(("jump", dt))
    return ops


def churn(ops):
    """Drive both through an op stream; yields after each op."""
    pair = Pair()
    now = 0.0
    live = []  # granted reservations not yet released
    rid = 0
    for op in ops:
        kind = op[0]
        if kind in ("advance", "jump"):
            now += op[1]
            pair.advance(now)
        elif kind == "alloc":
            _, lead, lr, nr = op
            a = pair.schedule(Request(qr=now, sr=now + lead, lr=lr, nr=nr, rid=rid))
            rid += 1
            if a is not None:
                live.extend((server, a.start, a.end) for server in a.servers)
        else:
            _, pick, frac = op
            if not live:
                continue
            server, start, end = live.pop(pick % len(live))
            base = max(start, now)
            cut = base + frac * (end - base)
            if not now <= cut < end:
                continue  # reservation already fully in the past
            pair.cal.release(server, cut, end)
            pair.ref._release(server, cut, end)
        yield pair.cal, pair.ref, now


class TestOracleEquivalenceUnderChurn:
    @given(ops=op_streams())
    @settings(max_examples=60, deadline=None)
    def test_feasibility_and_range_agree(self, ops):
        for cal, ref, now in churn(ops):
            for k in (0, 3, RMAX):
                t = now + k * TAU
                for nr in (1, N):
                    assert chosen(cal, t, t + 35.0, nr) == expected(ref, t, t + 35.0, nr), (t, nr)
            window = (now + 5.0, now + 35.0)
            assert ranged(cal, *window) == ref.probe(*window), window

    @given(ops=op_streams())
    @settings(max_examples=40, deadline=None)
    def test_invariants_hold_after_every_operation(self, ops):
        for cal, ref, _ in churn(ops):
            cal.validate()
            assert idle_state(cal) == ref.export_intervals()


class TestOracleEquivalence:
    @given(requests=request_streams())
    @settings(max_examples=120, deadline=None)
    def test_feasibility_verdicts_agree_on_identical_state(self, requests):
        for req, cal, ref in lockstep(requests):
            base = max(req.sr, req.qr)
            for k in range(RMAX):
                t = base + k * TAU
                if not cal.in_horizon(t):
                    break
                for nr in (1, req.nr, N):
                    assert chosen(cal, t, t + req.lr, nr) == expected(ref, t, t + req.lr, nr), (
                        f"pick differs at t={t}, nr={nr} for {req}"
                    )

    @given(requests=request_streams())
    @settings(max_examples=80, deadline=None)
    def test_range_search_identical_on_identical_state(self, requests):
        for req, cal, ref in lockstep(requests):
            window = (req.qr + 5.0, req.qr + 25.0)
            assert ranged(cal, *window) == ref.probe(*window), f"range search differs at {window}"

    @given(requests=request_streams())
    @settings(max_examples=60, deadline=None)
    def test_idle_periods_stay_identical(self, requests):
        """Both hold the same per-server idle periods, uids included,
        after every request."""
        for _, cal, ref in lockstep(requests):
            assert idle_state(cal) == ref.export_intervals()
