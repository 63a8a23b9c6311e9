"""Certificate-checking the online co-allocator against brute force.

Local correctness needs no second scheduler: given the allocator's own
committed reservations, every attempt's verdict must match a brute-force
feasibility check —

* every failed attempt at time ``t`` really had fewer than ``n_r``
  servers free throughout ``[t, t + l_r)``;
* the successful attempt really had at least ``n_r``;
* the granted servers really were free (no double booking).

These certificates pin down Phase 1, Phase 2 and the ``Δt``/``R_max``
retry loop exactly, with no reliance on tree internals.  Global outcomes
depend on which servers each job lands on (that choice shapes future
fragmentation), so they can be compared only with a scheduler that makes
the same canonical choice: the reference scheduler of
:mod:`repro.verify.oracle`, which shares no code with the tree path and
must make every decision the allocator makes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.calendar import AvailabilityCalendar
from repro.core.coalloc import OnlineCoAllocator
from repro.core.types import Request
from repro.verify.oracle import ReferenceScheduler

from .test_ladder_skip import decision

TAU = 10.0
Q = 24
N = 6
DELTA = 10.0
RMAX = 8


@st.composite
def request_streams(draw):
    n = draw(st.integers(min_value=1, max_value=25))
    reqs = []
    t = 0.0
    for i in range(n):
        t += draw(st.floats(min_value=0.0, max_value=30.0, allow_nan=False, width=32))
        lead = draw(st.sampled_from([0.0, 0.0, 0.0, 5.0, 20.0, 60.0]))
        lr = draw(st.floats(min_value=1.0, max_value=80.0, allow_nan=False, width=32))
        nr = draw(st.integers(min_value=1, max_value=N))
        reqs.append(Request(qr=t, sr=t + lead, lr=lr, nr=nr, rid=i))
    return reqs


class Ledger:
    """Brute-force view of every commitment the allocator has made."""

    def __init__(self) -> None:
        self.busy: dict[int, list[tuple[float, float]]] = {s: [] for s in range(N)}

    def record(self, allocation) -> None:
        for server in allocation.servers:
            self.busy[server].append((allocation.start, allocation.end))

    def free_count(self, start: float, end: float) -> int:
        count = 0
        for intervals in self.busy.values():
            if all(e <= start or s >= end for s, e in intervals):
                count += 1
        return count

    def is_free(self, server: int, start: float, end: float) -> bool:
        return all(e <= start or s >= end for s, e in self.busy[server])


def run_with_certificates(requests):
    cal = AvailabilityCalendar(N, TAU, Q)
    alloc = OnlineCoAllocator(cal, delta_t=DELTA, r_max=RMAX)
    ledger = Ledger()
    certificates = []
    for req in requests:
        cal.advance(req.qr)
        pre_horizon_end = cal.horizon_end
        a = alloc.schedule(req)
        certificates.append((req, a, pre_horizon_end))
        if a is not None:
            # the grant must be consistent *before* we record it
            for server in a.servers:
                assert ledger.is_free(server, a.start, a.end), (
                    f"double booking on server {server} for {req}"
                )
            ledger.record(a)
    return cal, ledger, certificates


class TestCertificates:
    @given(requests=request_streams())
    @settings(max_examples=200, deadline=None)
    def test_every_attempt_verdict_is_correct(self, requests):
        cal, _, certificates = run_with_certificates(requests)
        # rebuild the ledger incrementally so each request is checked
        # against exactly the state the allocator saw
        ledger = Ledger()
        for req, a, horizon_end in certificates:
            base = max(req.sr, req.qr)
            if a is None:
                # all RMAX attempts (or those within horizon) must truly fail
                for k in range(RMAX):
                    t = base + k * DELTA
                    if t >= horizon_end:
                        break
                    assert ledger.free_count(t, t + req.lr) < req.nr, (
                        f"{req}: rejected but attempt {k} at t={t} had room"
                    )
            else:
                k_success = a.attempts - 1
                assert a.start == base + k_success * DELTA
                for k in range(k_success):
                    t = base + k * DELTA
                    assert ledger.free_count(t, t + req.lr) < req.nr, (
                        f"{req}: delayed to attempt {k_success} but attempt {k} had room"
                    )
                assert ledger.free_count(a.start, a.end) >= req.nr
                ledger.record(a)
        cal.validate()

    @given(requests=request_streams())
    @settings(max_examples=100, deadline=None)
    def test_no_double_booking_ever(self, requests):
        _, ledger, _ = run_with_certificates(requests)
        for server, intervals in ledger.busy.items():
            intervals.sort()
            for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
                assert e1 <= s2, f"server {server}: [{s1},{e1}) overlaps [{s2},{e2})"

    @given(requests=request_streams())
    @settings(max_examples=100, deadline=None)
    def test_allocations_respect_request_shape(self, requests):
        _, _, certificates = run_with_certificates(requests)
        for req, a, _ in certificates:
            if a is None:
                continue
            assert a.start >= req.sr
            assert a.end == a.start + req.lr
            assert a.delay == a.start - req.sr
            assert 1 <= a.attempts <= RMAX
            assert len(set(a.servers)) == req.nr

    @given(requests=request_streams())
    @settings(max_examples=50, deadline=None)
    def test_reference_scheduler_makes_the_same_decisions(self, requests):
        """The reference scheduler, a linear scan over plain tuples, grants
        the same window on the same servers after the same number of
        attempts, or refuses for the same reason."""
        cal = AvailabilityCalendar(N, TAU, Q)
        alloc = OnlineCoAllocator(cal, delta_t=DELTA, r_max=RMAX)
        ref = ReferenceScheduler(N, TAU, Q, delta_t=DELTA, r_max=RMAX)
        for req in requests:
            cal.advance(req.qr)
            ref.advance(req.qr)
            outcome = alloc.schedule_detailed(req)
            expected = ref.schedule(req.rid, req.sr, req.lr, req.nr, req.deadline)
            assert decision(outcome) == expected, req
